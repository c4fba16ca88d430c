// Lab: the parallel, dependency-aware evaluation engine behind the benches.
//
// Every bench regenerates paper tables from the same primitives — prepared
// workloads, optimized layouts, solo and co-run cache simulations under the
// two measurement flavours — forming a natural DAG:
//
//   prepare workload ── optimize layout ──┬── solo sim
//                                         └── co-run sim (x peer's layout)
//
// The Lab computes each cell exactly once, keyed by a typed EvalKey, with
// per-cell latches instead of a global lock: independent cells simulate
// concurrently on a shared thread pool while duplicate requests block only
// on their own key. Callers either demand-drive single cells through the
// stage getters, or submit a whole table/figure workload up front through
// evaluate_all(requests); both go through the same memo tables, so results
// are identical (and deterministic) at any thread count. Every stage is
// instrumented — cache hits / computes / dedup-waits, wall and CPU time —
// exposed as a LabMetrics snapshot (see the benches' --json flag).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/fetch_plan.hpp"
#include "harness/eval.hpp"
#include "harness/memo.hpp"
#include "harness/options.hpp"
#include "harness/pipeline.hpp"
#include "perfmodel/corun_predictor.hpp"
#include "perfmodel/perfmodel.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace codelayout {

/// Point-in-time snapshot of the engine's instrumentation.
struct LabMetrics {
  unsigned threads = 1;
  StageSnapshot prepare;
  StageSnapshot layout;
  StageSnapshot solo;
  StageSnapshot corun;
  std::uint64_t batches = 0;             ///< evaluate_all calls
  std::uint64_t requests_submitted = 0;  ///< requests across all batches
  std::uint64_t engine_wall_nanos = 0;   ///< wall time inside evaluate_all

  /// Memo cells actually computed, across all stages.
  [[nodiscard]] std::uint64_t tasks_executed() const;
  /// Lookups served without computing (cache hits + waits on in-flight
  /// cells).
  [[nodiscard]] std::uint64_t tasks_deduplicated() const;

  /// One JSON object; `bench` (if non-empty) is recorded as the dump's name.
  [[nodiscard]] std::string to_json(std::string_view bench = {}) const;
};

class Lab {
 public:
  Lab() : Lab(LabOptions{}) {}
  /// Validates the options (throws ContractError on nonsense configs).
  explicit Lab(LabOptions options);

  [[nodiscard]] const PipelineConfig& pipeline() const {
    return options_.pipeline();
  }
  [[nodiscard]] const PerfParams& perf() const { return options_.perf(); }
  /// Resolved engine width (>= 1).
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Materializes every requested cell, fanning independent cells out over
  /// the thread pool (inline when threads() == 1). Returns when all are
  /// done; rethrows the first failure (in request order) after the batch has
  /// settled.
  void evaluate_all(std::span<const EvalRequest> requests);

  /// evaluate_all with per-cell status instead of a batch-aborting throw:
  /// every request runs to completion and reports ok or its own failure
  /// message. Failures are memoized like values (deterministic computes
  /// would fail identically on retry), so a failed cell reports the same
  /// error to every later requester.
  std::vector<EvalOutcome> evaluate_all_checked(
      std::span<const EvalRequest> requests);

  /// Prepares the named workloads concurrently (optional warm-up).
  void prepare_all(const std::vector<std::string>& names);

  const PreparedWorkload& workload(const std::string& name);

  /// nullopt = the original (baseline) layout.
  const CodeLayout& layout(const std::string& name,
                           std::optional<Optimizer> optimizer);

  /// The memoized fetch plan for (workload, optimizer) at the paper's line
  /// size — both measurement flavours run the same line size, so one plan
  /// serves every solo and co-run simulation of that layout. Hit/compute
  /// counts are exported as `cache.fetch_plan.hits` /
  /// `cache.fetch_plan.misses`.
  const FetchPlan& fetch_plan(const std::string& name,
                              std::optional<Optimizer> optimizer);
  /// Same, for an explicit line size: plans are memoized per (workload,
  /// optimizer, line size), so a geometry sweep shares plans per line size
  /// instead of rebuilding them per cell.
  const FetchPlan& fetch_plan(const std::string& name,
                              std::optional<Optimizer> optimizer,
                              std::uint32_t line_bytes);

  /// The memoized analytic solo profile of (workload, optimizer) — the
  /// footprint curve + totals the co-run predictor composes. One kernel pass
  /// per (workload, optimizer, line size): a full N x N screening matrix
  /// costs N profile builds, every pairing after that is closed-form.
  /// Hit/compute counts are exported as `perfmodel.predict.profile_memo_hits`
  /// / `perfmodel.predict.profile_builds`, and the footprint-curve bytes of
  /// the profiles built as `perfmodel.predict.profile_bytes`.
  const SoloProfile& solo_profile(const std::string& name,
                                  std::optional<Optimizer> optimizer);
  const SoloProfile& solo_profile(const std::string& name,
                                  std::optional<Optimizer> optimizer,
                                  std::uint32_t line_bytes);

  /// Closed-form pairing prediction (perfmodel/corun_predictor.hpp) from the
  /// memoized solo profiles — no simulation. The screening counterpart of
  /// corun(): same parties, same hierarchy semantics, microseconds instead
  /// of a bit-exact replay.
  CorunPrediction predict_corun(const std::string& self_name,
                                std::optional<Optimizer> self_opt,
                                const std::string& peer_name,
                                std::optional<Optimizer> peer_opt,
                                const HierarchySpec& hierarchy = {});

  const SimResult& solo(const std::string& name,
                        std::optional<Optimizer> optimizer, Measure measure,
                        const HierarchySpec& hierarchy = {});

  /// Co-run of `self` (full trace, measured) against wrapping `peer`.
  const CorunResult& corun(const std::string& self_name,
                           std::optional<Optimizer> self_opt,
                           const std::string& peer_name,
                           std::optional<Optimizer> peer_opt,
                           Measure measure,
                           const HierarchySpec& hierarchy = {});

  /// Modeled runtimes (hardware flavour, per the paper's wall-clock timing).
  /// A multi-level hierarchy adds the memory-gap term for demand misses that
  /// fell through the shared L2 (perfmodel Eq. 1/2 composition).
  double solo_cycles(const std::string& name,
                     std::optional<Optimizer> optimizer,
                     const HierarchySpec& hierarchy = {});
  double corun_self_cycles(const std::string& self_name,
                           std::optional<Optimizer> self_opt,
                           const std::string& peer_name,
                           std::optional<Optimizer> peer_opt,
                           const HierarchySpec& hierarchy = {});

  /// Whether the paper's BB-reordering compiler handled this program
  /// (it failed on perlbench and povray; reproduced as N/A).
  static bool bb_reordering_supported(const std::string& name);

  [[nodiscard]] LabMetrics metrics() const;

 private:
  void execute(const EvalRequest& request);
  /// Shared batch driver: one exception_ptr slot per request (null = ok).
  std::vector<std::exception_ptr> run_batch(
      std::span<const EvalRequest> requests);
  ThreadPool& pool();
  StageCounters* counters(Stage stage);
  SimOptions sim_options(Measure measure, const HierarchySpec& hierarchy) const;

  LabOptions options_;
  unsigned threads_ = 1;

  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;

  MemoTable<PreparedWorkload> workloads_;
  MemoTable<CodeLayout> layouts_;
  MemoTable<FetchPlan> plans_;
  MemoTable<SoloProfile> profiles_;
  MemoTable<SimResult> solos_;
  MemoTable<CorunResult> coruns_;

  StageCounters prepare_counters_;
  StageCounters layout_counters_;
  StageCounters solo_counters_;
  StageCounters corun_counters_;
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> requests_submitted_{0};
  std::atomic<std::uint64_t> engine_wall_nanos_{0};
};

}  // namespace codelayout
