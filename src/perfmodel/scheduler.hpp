// Cache-aware co-scheduling over the analytic predictor (DESIGN.md §16).
//
// Given N programs and M SMT pair slots, choose which programs share a core
// so the total predicted front-level misses are minimized. A slot runs one
// or two programs; N <= 2M is required, so at least max(0, N - M) pairs are
// forced. Pairing never reduces misses (co-run interference only adds), so
// the optimum uses exactly that many pairs and the search is over *which*
// programs absorb the sharing.
//
// The search is greedy seeding + local-search refinement, entirely over the
// predictor's closed-form pair costs: the full cost matrix is N^2
// predictions (microseconds each), the greedy pass picks the cheapest
// disjoint pairs, and the refinement loop applies first-improvement swap
// moves (exchange members between two pairs, or swap a paired program with
// an unpaired one) to a deterministic fixpoint. Simulation is reserved for
// verification of the chosen assignment's top-k costliest pairs —
// co_schedule (harness/experiments.hpp) runs the bit-exact co-run simulator
// on exactly those pairs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/hierarchy.hpp"
#include "perfmodel/corun_predictor.hpp"

namespace codelayout {

/// Pairwise predicted costs for a program set: cost(i, j) is the total
/// predicted misses of co-running i and j (symmetric), solo(i) the predicted
/// misses of i running alone.
struct PairCostMatrix {
  std::size_t programs = 0;
  std::vector<double> pair;  ///< programs x programs, row-major; diag unused
  std::vector<double> solo;  ///< predicted solo misses per program

  [[nodiscard]] double cost(std::size_t i, std::size_t j) const {
    return pair[i * programs + j];
  }
};

/// Evaluates the full matrix: N predicted-solo costs and N*(N-1)/2 pairing
/// predictions (stored symmetrically). Closed form — no simulation.
[[nodiscard]] PairCostMatrix compute_pair_costs(
    const std::vector<const SoloProfile*>& profiles,
    const HierarchySpec& hierarchy = {}, const PerfParams& params = {});

/// One chosen pairing: indices into the program set, a < b.
struct SchedulePair {
  std::size_t a = 0;
  std::size_t b = 0;
  double predicted_misses = 0.0;  ///< pair cost from the matrix

  friend bool operator==(const SchedulePair&, const SchedulePair&) = default;
};

struct ScheduleResult {
  /// Chosen pairs, sorted by first index — max(0, N - M) of them.
  std::vector<SchedulePair> pairs;
  /// Programs running alone (ascending index order).
  std::vector<std::size_t> unpaired;
  /// The objective: predicted misses over all pairs plus all solo programs.
  double predicted_total_misses = 0.0;
  /// Local-search refinement passes until fixpoint (0 = greedy was optimal
  /// under the move set).
  std::uint32_t refine_passes = 0;
};

/// Greedy + local-search assignment of N programs to M pair slots. Throws
/// ContractError when N > 2M (infeasible) or M == 0 with N > 0.
/// Deterministic: ties break on ascending indices and the refinement visits
/// moves in a fixed order.
[[nodiscard]] ScheduleResult schedule_corun(const PairCostMatrix& costs,
                                            std::size_t slots);

/// The indices of the `k` costliest chosen pairs (by predicted misses,
/// descending; ties by ascending pair order) — the verification set the
/// bit-exact simulator replays. Returns fewer when the schedule has fewer
/// pairs.
[[nodiscard]] std::vector<std::size_t> top_k_pairs(
    const ScheduleResult& schedule, std::size_t k);

}  // namespace codelayout
