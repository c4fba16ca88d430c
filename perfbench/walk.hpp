// The traced run's layer walk: computes the cells of a batch by calling each
// layer's public functions directly (build_workload, profile, prune_to_hot,
// analyze_affinity, Trg::build, reduce_trg, *_reordering, FetchPlan,
// simulate_solo/simulate_corun, build_solo_profile, compute_pair_costs,
// schedule_corun) in the order the Lab's DAG needs them, and times every call
// from outside. Each call becomes one span in the TraceRecorder with the
// program, optimizer and peer as args, so the per-layer totals keep a fixed
// set of names however many programs or pairs a workload has.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "harness/lab.hpp"
#include "perfmodel/corun_predictor.hpp"
#include "service/protocol.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

/// Busy time (ns) and work counts per layer, summed over every call.
struct LayerTotals {
  std::atomic<std::uint64_t> build_ns{0};
  std::atomic<std::uint64_t> profile_ns{0};
  std::atomic<std::uint64_t> profile_events{0};
  std::atomic<std::uint64_t> prune_ns{0};
  std::atomic<std::uint64_t> trace_events{0};
  std::atomic<std::uint64_t> trace_runs{0};
  std::atomic<std::uint64_t> affinity_calls{0};
  std::atomic<std::uint64_t> affinity_ns{0};
  std::atomic<std::uint64_t> affinity_events{0};
  std::atomic<std::uint64_t> trg_build_ns{0};
  std::atomic<std::uint64_t> trg_reduce_ns{0};
  std::atomic<std::uint64_t> transform_ns{0};
  std::atomic<std::uint64_t> fetch_plan_ns{0};
  std::atomic<std::uint64_t> solo_calls{0};
  std::atomic<std::uint64_t> solo_ns{0};
  std::atomic<std::uint64_t> solo_events{0};
  std::atomic<std::uint64_t> corun_calls{0};
  std::atomic<std::uint64_t> corun_ns{0};
  std::atomic<std::uint64_t> corun_events{0};
  std::atomic<std::uint64_t> corun_l2_ns{0};
  std::atomic<std::uint64_t> perf_profile_ns{0};
  std::atomic<std::uint64_t> predict_calls{0};
  std::atomic<std::uint64_t> schedule_ns{0};

  /// Busy time of the layers under the Lab (everything but perfmodel).
  [[nodiscard]] std::uint64_t engine_ns() const;
  void write(codelayout::JsonWriter& json) const;
};

class LayerWalk {
 public:
  /// `threads` > 1 fans each phase out over a pool of that width, and, like
  /// the Lab, lends the pool to the analysis kernels.
  LayerWalk(codelayout::LabOptions options, unsigned threads);

  /// Computes every cell of `requests`, plus the predictor work of
  /// `coschedules` (kCoSchedule jobs). Returns the walk's wall time (ns).
  std::uint64_t run(
      const std::vector<codelayout::EvalRequest>& requests,
      const std::vector<codelayout::service::JobRequest>& coschedules);

  /// Cells whose walk result differs from what `lab` computed for them.
  [[nodiscard]] std::size_t mismatches(codelayout::Lab& lab) const;

  [[nodiscard]] const LayerTotals& totals() const { return totals_; }

 private:
  using OptOpt = std::optional<codelayout::Optimizer>;
  using LayoutKey = std::pair<std::string, codelayout::Optimizer>;
  using PlanKey = std::tuple<std::string, OptOpt, std::uint32_t>;
  using SoloMap =
      std::map<codelayout::EvalKey, std::unique_ptr<codelayout::SimResult>>;
  using CorunMap =
      std::map<codelayout::EvalKey, std::unique_ptr<codelayout::CorunResult>>;
  using ProfileMap =
      std::map<PlanKey, std::unique_ptr<codelayout::SoloProfile>>;

  template <typename Fn>
  void parallel(std::size_t n, Fn fn);

  codelayout::PreparedWorkload prepare(const std::string& name);
  std::unique_ptr<codelayout::CodeLayout> optimize(const LayoutKey& key);
  // One cell each: fill the cell's result slot.
  void solo(SoloMap::value_type& cell);
  void corun(CorunMap::value_type& cell);
  void solo_profile(ProfileMap::value_type& cell);
  [[nodiscard]] const codelayout::CodeLayout& layout(const std::string& name,
                                                     OptOpt opt) const;
  [[nodiscard]] codelayout::SimOptions sim_options(
      const codelayout::EvalKey& key) const;

  codelayout::LabOptions options_;
  std::unique_ptr<codelayout::ThreadPool> pool_;
  LayerTotals totals_;

  std::map<std::string, std::unique_ptr<codelayout::PreparedWorkload>> programs_;
  std::map<LayoutKey, std::unique_ptr<codelayout::CodeLayout>> layouts_;
  std::map<PlanKey, std::unique_ptr<codelayout::FetchPlan>> plans_;
  ProfileMap profiles_;
  SoloMap solos_;
  CorunMap coruns_;
};

}  // namespace perfbench
