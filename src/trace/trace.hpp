// Dynamic code-block traces (paper Sec. II-B, Definition 1).
//
// A Trace is a sequence of code-block symbols at either basic-block or
// function granularity. Symbols are the dense BlockId/FuncId values of the
// profiled Module, stored untyped so the locality analyses can share one
// implementation across both granularities; the typed push/at accessors keep
// granularity mix-ups out of client code.
//
// Storage is one flat vector, 4 bytes per event, and every analysis kernel
// makes one per-event pass over symbols(). Run-length (symbol, length) pairs
// exist only as the serialized encoding in trace/io (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/ids.hpp"
#include "support/check.hpp"

namespace codelayout {

/// Untyped code-block symbol; the value of a BlockId or FuncId.
using Symbol = std::uint32_t;

/// An empty placeholder. The benchmark harness (perfbench/walk.cpp) copies
/// PipelineConfig::dispatch into AffinityConfig, TrgConfig and SimOptions,
/// so those four `dispatch` members stay until it stops. Every kernel has
/// exactly one implementation, so there is nothing to choose: the struct
/// carries no data and every value compares equal.
struct AnalysisDispatch {
  friend bool operator==(const AnalysisDispatch&,
                         const AnalysisDispatch&) = default;
};

class Trace {
 public:
  enum class Granularity { kBlock, kFunction };

  explicit Trace(Granularity g) : granularity_(g) {}

  [[nodiscard]] Granularity granularity() const { return granularity_; }
  [[nodiscard]] bool is_block() const {
    return granularity_ == Granularity::kBlock;
  }

  [[nodiscard]] std::size_t size() const { return symbols_.size(); }
  [[nodiscard]] bool empty() const { return symbols_.empty(); }

  /// The event sequence.
  [[nodiscard]] std::span<const Symbol> symbols() const { return symbols_; }

  /// Calls `fn(symbol, length)` for every maximal run of equal consecutive
  /// symbols, in order: the decomposition the serialized encoding and the
  /// service's trace statistics are defined over. O(size).
  template <typename Fn>
  void for_each_run(Fn&& fn) const {
    for (std::size_t i = 0; i < symbols_.size();) {
      std::size_t j = i + 1;
      while (j < symbols_.size() && symbols_[j] == symbols_[i]) ++j;
      fn(symbols_[i], static_cast<std::uint64_t>(j - i));
      i = j;
    }
  }

  /// Number of maximal runs (1 per event on a trimmed trace). O(size).
  [[nodiscard]] std::size_t run_count() const;

  void reserve(std::size_t n) { symbols_.reserve(n); }

  void push(BlockId b) {
    CL_DCHECK(granularity_ == Granularity::kBlock);
    CL_DCHECK(b.valid());
    push_symbol(b.value);
  }
  void push(FuncId f) {
    CL_DCHECK(granularity_ == Granularity::kFunction);
    CL_DCHECK(f.valid());
    push_symbol(f.value);
  }
  void push_symbol(Symbol s) { symbols_.push_back(s); }

  /// Appends `count` consecutive events of `s`. A push_back loop: GCC 12
  /// under -fsanitize=thread reports a false -Warray-bounds on the inlined
  /// fill insert (and on resize) once a test calls this.
  void push_run(Symbol s, std::size_t count) {
    for (; count != 0; --count) symbols_.push_back(s);
  }

  [[nodiscard]] BlockId block_at(std::size_t i) const {
    CL_DCHECK(granularity_ == Granularity::kBlock);
    return BlockId(symbols_[i]);
  }
  [[nodiscard]] FuncId function_at(std::size_t i) const {
    CL_DCHECK(granularity_ == Granularity::kFunction);
    return FuncId(symbols_[i]);
  }

  /// Trimmed trace (Definition 1): collapses runs of the same symbol.
  [[nodiscard]] Trace trimmed() const;

  /// True when no two consecutive symbols are equal.
  [[nodiscard]] bool is_trimmed() const;

  /// Number of distinct symbols.
  [[nodiscard]] std::size_t distinct_count() const;

  /// Largest symbol value + 1 (0 for an empty trace); the dense symbol space.
  [[nodiscard]] Symbol symbol_space() const;

  /// occurrence_counts()[s] = number of events of symbol s; indexed to
  /// symbol_space().
  [[nodiscard]] std::vector<std::uint64_t> occurrence_counts() const;

  friend bool operator==(const Trace&, const Trace&) = default;

 private:
  Granularity granularity_;
  std::vector<Symbol> symbols_;
};

/// Projects a block trace to the function trace of the same run (trimmed per
/// Definition 1: consecutive blocks of the same function collapse to one
/// function event).
class Module;  // fwd (ir/module.hpp)
Trace project_to_functions(const Trace& block_trace, const Module& module);

}  // namespace codelayout
