// Per-key once-execution memo table — the concurrency core of the Lab.
//
// The first thread to request a key claims its cell and computes the value
// inline, off the table lock; every other thread requesting the same key
// blocks only on that cell's latch (never on a global mutex), so independent
// keys compute fully concurrently while duplicates deduplicate. Because an
// in-progress cell is always being actively computed by the thread that
// claimed it, and the stage graph is acyclic, waiters always wait on a
// thread making progress: no idle-owner deadlock is possible even when every
// pool worker blocks.
#pragma once

#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "harness/eval.hpp"
#include "support/metrics.hpp"
#include "support/trace_recorder.hpp"

namespace codelayout {

template <typename Value>
class MemoTable {
 public:
  /// Returns the cached value for `key`, computing it via `compute()` if
  /// this is the first request. Stable reference (valid for the table's
  /// lifetime). A throwing compute is cached as that exception and rethrown
  /// to every requester (computations here are deterministic, so retrying
  /// would fail identically). `counters` may be null (a table with no stage).
  template <typename Compute>
  const Value& get_or_compute(const EvalKey& key, StageCounters* counters,
                              Compute&& compute) {
    std::shared_ptr<Entry> entry;
    bool owner = false;
    {
      std::scoped_lock lock(mutex_);
      auto [it, inserted] = map_.try_emplace(key);
      if (inserted) {
        it->second = std::make_shared<Entry>();
        owner = true;
      }
      entry = it->second;
    }
    // Per-job cost attribution: the ambient job's accumulator (when one is
    // installed) counts owner-computes as misses and hit/wait as hits.
    CostCounters* cost = current_job_context().cost;
    if (owner) {
      if (cost) cost->memo_misses.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t wall0 = counters ? wall_nanos_now() : 0;
      const std::uint64_t cpu0 = counters ? thread_cpu_nanos_now() : 0;
      try {
        entry->value = std::make_unique<Value>(compute());
      } catch (...) {
        entry->error = std::current_exception();
      }
      if (counters) {
        counters->record_compute(wall_nanos_now() - wall0,
                                 thread_cpu_nanos_now() - cpu0);
      }
      entry->done.store(true, std::memory_order_release);
      entry->latch.set_value();
    } else {
      if (cost) cost->memo_hits.fetch_add(1, std::memory_order_relaxed);
      if (entry->done.load(std::memory_order_acquire)) {
        if (counters) counters->record_hit();
      } else {
        if (counters) counters->record_wait();
        entry->ready.wait();
      }
    }
    if (entry->error) std::rethrow_exception(entry->error);
    return *entry->value;
  }

  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lock(mutex_);
    return map_.size();
  }

 private:
  struct Entry {
    Entry() : ready(latch.get_future().share()) {}
    std::promise<void> latch;
    std::shared_future<void> ready;
    std::atomic<bool> done{false};
    std::unique_ptr<Value> value;
    std::exception_ptr error;
  };

  mutable std::mutex mutex_;
  std::unordered_map<EvalKey, std::shared_ptr<Entry>, EvalKeyHash> map_;
};

}  // namespace codelayout
