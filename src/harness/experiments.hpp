// Experiment drivers: one function per paper table/figure, returning
// structured rows. The bench binaries render these; integration tests assert
// their invariants (who wins, directions, rough factors).
//
// Each driver submits its full table/figure workload to the Lab's parallel
// evaluation engine up front (Lab::evaluate_all) and then assembles rows
// from the warm memo in the fixed reporting order — so rows are identical
// at any thread count.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "harness/lab.hpp"
#include "perfmodel/scheduler.hpp"

namespace codelayout {

// ---- E0: the introduction table -------------------------------------------
struct IntroTable {
  std::vector<std::string> programs;  ///< the non-trivial-miss programs
  double avg_solo;
  double avg_corun1;  ///< vs gcc
  double avg_corun2;  ///< vs gamess
  [[nodiscard]] double increase1() const { return avg_corun1 / avg_solo - 1; }
  [[nodiscard]] double increase2() const { return avg_corun2 / avg_solo - 1; }
};
IntroTable intro_table(Lab& lab, double nontrivial_threshold = 0.005,
                       const HierarchySpec& hierarchy = {});

// ---- E1: Fig. 4 -------------------------------------------------------------
struct Fig4Row {
  std::string name;
  double solo;
  double probe_gcc;
  double probe_gamess;
};
std::vector<Fig4Row> fig4_rows(Lab& lab, const HierarchySpec& hierarchy = {});

// ---- E2: Table I -------------------------------------------------------------
struct Table1Row {
  std::string name;
  std::uint64_t dynamic_instructions;
  std::uint64_t static_bytes;
  double solo;
  double corun_gcc;
  double corun_gamess;
};
std::vector<Table1Row> table1_rows(Lab& lab,
                                   const HierarchySpec& hierarchy = {});

// ---- E3: Fig. 5 (solo effect of the affinity optimizers) -------------------
struct Fig5Row {
  std::string name;
  bool bb_supported;
  double func_speedup;
  double func_miss_reduction;  ///< hw-counted
  double bb_speedup;           ///< 0 when !bb_supported
  double bb_miss_reduction;
};
std::vector<Fig5Row> fig5_rows(Lab& lab, const HierarchySpec& hierarchy = {});

// ---- E4: Table II (average co-run effect of three optimizers) --------------
struct Table2Cell {
  bool available = true;
  double speedup = 1.0;
  double miss_reduction_hw = 0.0;
  double miss_reduction_sim = 0.0;
};
struct Table2Row {
  std::string name;
  Table2Cell func_affinity;
  Table2Cell bb_affinity;
  Table2Cell func_trg;
};
std::vector<Table2Row> table2_rows(Lab& lab,
                                   const HierarchySpec& hierarchy = {});

// ---- E5: Fig. 6 (per-pairing co-run speedups) -------------------------------
struct Fig6Cell {
  std::string program;
  std::string probe;
  double speedup;
};
std::vector<Fig6Cell> fig6_cells(Lab& lab, Optimizer optimizer,
                                 const HierarchySpec& hierarchy = {});

// ---- E6: Fig. 7 (hyper-threading throughput) --------------------------------
struct Fig7Pair {
  std::string a;
  std::string b;
  double baseline_improvement;   ///< co-run over solo, baseline layouts
  double optimized_improvement;  ///< with function-affinity layouts
  /// The paper's "magnifying effect": optimized gain over baseline gain.
  [[nodiscard]] double magnification() const {
    return baseline_improvement > 0
               ? optimized_improvement / baseline_improvement - 1.0
               : 0.0;
  }
};
std::vector<Fig7Pair> fig7_pairs(Lab& lab,
                                 const HierarchySpec& hierarchy = {});
/// The 7 programs of Fig. 7 (the selected 8 minus gobmk).
const std::vector<std::string>& fig7_programs();

// ---- E7: Sec. III-F (defensiveness + politeness combined) -------------------
struct Sec3FRow {
  std::string program;
  std::string peer;
  double opt_base_speedup;  ///< optimized+baseline vs baseline+baseline
  double opt_opt_speedup;   ///< optimized+optimized vs baseline+baseline
};
std::vector<Sec3FRow> sec3f_rows(Lab& lab, std::size_t top_n = 3,
                                 const HierarchySpec& hierarchy = {});

/// Top-N programs by average function-affinity co-run speedup.
std::vector<std::string> top_improving_programs(
    Lab& lab, std::size_t n, const HierarchySpec& hierarchy = {});

// ---- E12: co-scheduling (Sec. III-F's question for a pool of programs) -----
struct CoSchedule {
  PairCostMatrix costs;  ///< the predictor's closed-form pair costs
  ScheduleResult schedule;
  std::vector<std::size_t> verified;  ///< top_k_pairs(schedule, verify_top)
  /// The bit-exact co-runs of each verified pair, a against b and then b
  /// against a, each measured over its full trace, in `verified` order.
  std::vector<SimResult> simulated;
};
/// Pairs `programs` (one layout request per program) onto `slots` SMT pair
/// slots by the predicted misses of their memoized solo profiles, then
/// simulates both directions of the `verify_top` costliest chosen pairs in
/// one batch. Throws the first failing layout or co-run, and ContractError
/// when the programs do not fit the slots.
CoSchedule co_schedule(Lab& lab, std::span<const EvalRequest> programs,
                       std::size_t slots, std::size_t verify_top,
                       Measure measure, const HierarchySpec& hierarchy = {});

}  // namespace codelayout
