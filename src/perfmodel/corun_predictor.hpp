// Analytic co-run screening: the paper's Eq. 1/2 evaluated in closed form
// from solo profiles, so any pairing's shared-cache interference can be
// predicted without simulating the pair (DESIGN.md §16).
//
// A SoloProfile distills one (workload, layout) into the inputs of the HOTL
// composition: the all-window footprint curve of its cache-line fetch stream
// plus the instruction/probe totals that convert the model's per-probe miss
// probabilities into the simulator's per-instruction miss ratios. Profiles
// are pure functions of the layout — one kernel pass per program — and
// predict_corun composes two of them under any HierarchySpec:
//
//   flat shared front:  P(self.miss) = P(self.FP + peer.FP >= C)   (Eq. 1/2)
//   private L1 + shared L2: each party keeps its solo L1 miss ratio
//     (the front is private, so no interference there) and the Eq. 1/2
//     composition moves down to the shared L2 capacity.
//
// A full N x N pairing matrix therefore costs N profile builds plus N^2
// closed-form evaluations instead of N^2 simulations; bench_predictor
// records the resulting screening speedup and the predicted-vs-simulated
// error envelope in BENCH_predictor.json.
#pragma once

#include <cstdint>
#include <string>

#include "cache/fetch_plan.hpp"
#include "cache/hierarchy.hpp"
#include "locality/footprint.hpp"
#include "perfmodel/perfmodel.hpp"
#include "trace/trace.hpp"

namespace codelayout {

/// Everything the analytic model needs to know about one program running a
/// given layout: the line-granular footprint curve of its evaluation fetch
/// stream and the totals that scale per-probe probabilities to the
/// simulator's per-instruction miss ratios.
struct SoloProfile {
  std::string workload;
  std::uint32_t line_bytes = 64;
  /// All-window average footprint of the cache-line trace, in lines.
  FootprintCurve lines;
  std::uint64_t instructions = 0;  ///< fetched, including layout overhead
  std::uint64_t overhead_instructions = 0;  ///< layout-added jumps
  std::uint64_t line_probes = 0;   ///< demand line probes (= window count)
  double data_stall_cpi = 0.0;     ///< workload's data-side CPI constant

  /// Converts the model's per-window (per line-probe) miss probabilities to
  /// per-instruction miss ratios, the unit SimResult::miss_ratio() reports.
  [[nodiscard]] double probes_per_instruction() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(line_probes) /
                                   static_cast<double>(instructions);
  }
  /// Distinct lines the program ever touches.
  [[nodiscard]] double max_footprint_lines() const {
    return lines.max_footprint();
  }
};

/// Builds the profile with one pass over the evaluation block trace: each
/// block run streams its fetch-plan line span straight into the footprint
/// kernel (FootprintBuilder), so the cache-line trace is never materialized
/// and a block's consecutive repeats collapse to O(span width) histogram
/// updates. The same pass accumulates the instruction totals. Deterministic,
/// and independent of measurement flavour (the model sees the bare fetch
/// stream). `line_bytes` must match the plan's.
[[nodiscard]] SoloProfile build_solo_profile(std::string workload,
                                             const FetchPlan& plan,
                                             const Trace& eval_blocks,
                                             double data_stall_cpi,
                                             std::uint32_t line_bytes);

/// One party's predicted behaviour, solo and under the pairing. Miss ratios
/// are per fetched instruction (SimResult units); the L2 rates are zero
/// under a flat hierarchy.
struct PartyPrediction {
  double solo_miss_ratio = 0.0;   ///< front-level misses / instruction, alone
  double corun_miss_ratio = 0.0;  ///< same, sharing the hierarchy with peer
  double solo_l2_miss_rate = 0.0;   ///< memory fetches / instruction, alone
  double corun_l2_miss_rate = 0.0;  ///< same, sharing the L2 with peer
  double solo_cycles = 0.0;   ///< modeled full-trace runtime, alone
  double corun_cycles = 0.0;  ///< modeled full-trace runtime, paired
  /// Predicted front-level misses over the party's full trace when paired.
  double predicted_misses = 0.0;

  /// Modeled co-run dilation (>= 1 in practice; 1.0 for an empty program).
  [[nodiscard]] double slowdown() const {
    return solo_cycles > 0.0 ? corun_cycles / solo_cycles : 1.0;
  }
  /// The party's defensiveness loss under this pairing (Sec. II-A).
  [[nodiscard]] double miss_ratio_increase() const {
    return corun_miss_ratio - solo_miss_ratio;
  }
};

/// predict_corun's output: both parties' predictions plus the relative fetch
/// speed used for the window scaling (parties progress inversely to their
/// CPIs, exactly as the co-run simulator interleaves them).
struct CorunPrediction {
  PartyPrediction self;  ///< party `a`
  PartyPrediction peer;  ///< party `b`
  double peer_speed = 1.0;  ///< b's fetch rate relative to a

  /// The co-scheduler's objective contribution of this pairing: predicted
  /// front-level misses of both parties over their full traces.
  [[nodiscard]] double total_predicted_misses() const {
    return self.predicted_misses + peer.predicted_misses;
  }
};

/// Composes the two solo profiles into per-party predicted miss ratios and
/// modeled runtimes under `hierarchy` (Eq. 1/2 for a flat shared front;
/// private-L1 fronts with the composition at the shared L2 otherwise).
/// Closed form — microseconds per call — and deterministic. Bumps the
/// `perfmodel.predict.calls` registry counter and the ambient job's
/// predict_calls cost counter.
[[nodiscard]] CorunPrediction predict_corun(const SoloProfile& a,
                                            const SoloProfile& b,
                                            const HierarchySpec& hierarchy = {},
                                            const PerfParams& params = {});

/// Predicted solo front-level misses over the program's full trace — the
/// objective contribution of a program left unpaired by the co-scheduler.
[[nodiscard]] double predicted_solo_misses(const SoloProfile& profile,
                                           const HierarchySpec& hierarchy = {});

}  // namespace codelayout
