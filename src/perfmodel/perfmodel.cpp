#include "perfmodel/perfmodel.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace codelayout {

double solo_cycles(const SimResult& sim, double data_stall_cpi,
                   const PerfParams& params) {
  CL_CHECK(data_stall_cpi >= 0.0);
  const auto program = static_cast<double>(sim.instructions -
                                           sim.overhead_instructions);
  const auto overhead = static_cast<double>(sim.overhead_instructions);
  return program * (params.base_cpi + data_stall_cpi) +
         overhead * params.jump_cpi +
         static_cast<double>(sim.misses()) * params.l1i_miss_penalty;
}

double corun_cycles(const SimResult& sim, std::uint64_t full_instructions,
                    double data_stall_cpi, const PerfParams& params) {
  CL_CHECK(sim.instructions > 0);
  const double miss_per_instr = static_cast<double>(sim.misses()) /
                                static_cast<double>(sim.instructions);
  const double overhead_share =
      static_cast<double>(sim.overhead_instructions) /
      static_cast<double>(sim.instructions);
  const auto instructions = static_cast<double>(full_instructions);
  const double program = instructions * (1.0 - overhead_share);
  const double overhead = instructions * overhead_share;
  return (program * (params.base_cpi + data_stall_cpi) +
          overhead * params.jump_cpi) *
             params.smt_cpi_inflation +
         instructions * miss_per_instr * params.corun_miss_penalty;
}

double solo_cycles(const SimResult& sim, double data_stall_cpi,
                   const PerfParams& params, const HierarchySpec& hierarchy) {
  double cycles = solo_cycles(sim, data_stall_cpi, params);
  if (hierarchy.multi_level()) {
    // Demand misses that fell through the L2 pay the memory gap on top of
    // the L2-hit penalty the base model already charged.
    cycles += static_cast<double>(sim.l2_misses) *
              (hierarchy.memory_cycles - hierarchy.l2_hit_cycles);
  }
  return cycles;
}

double corun_cycles(const SimResult& sim, std::uint64_t full_instructions,
                    double data_stall_cpi, const PerfParams& params,
                    const HierarchySpec& hierarchy) {
  double cycles = corun_cycles(sim, full_instructions, data_stall_cpi, params);
  if (hierarchy.multi_level()) {
    // Same per-instruction scaling as the base model: the measured L2 miss
    // rate extrapolates to the full trace.
    const double mem_per_instr = static_cast<double>(sim.l2_misses) /
                                 static_cast<double>(sim.instructions);
    cycles += static_cast<double>(full_instructions) * mem_per_instr *
              (hierarchy.memory_cycles - hierarchy.l2_hit_cycles);
  }
  return cycles;
}

double corun_peer_speed(double self_stall_cpi, double peer_stall_cpi,
                        const PerfParams& params) {
  const double self_cpi = params.base_cpi + self_stall_cpi;
  const double peer_cpi = params.base_cpi + peer_stall_cpi;
  return std::clamp(self_cpi / peer_cpi, 0.25, 4.0);
}

double speedup(double baseline_cycles, double improved_cycles) {
  CL_CHECK(baseline_cycles > 0.0 && improved_cycles > 0.0);
  return baseline_cycles / improved_cycles;
}

ThroughputResult corun_throughput(double solo_cycles_1, double corun_cycles_1,
                                  double solo_cycles_2,
                                  double corun_cycles_2) {
  CL_CHECK(solo_cycles_1 > 0.0 && solo_cycles_2 > 0.0);
  CL_CHECK(corun_cycles_1 > 0.0 && corun_cycles_2 > 0.0);
  const double serial = solo_cycles_1 + solo_cycles_2;

  // Both run concurrently until the shorter co-run finishes; the survivor's
  // unfinished fraction then runs alone at its solo rate.
  const double first = std::min(corun_cycles_1, corun_cycles_2);
  const double survivor_corun = std::max(corun_cycles_1, corun_cycles_2);
  const double survivor_solo =
      corun_cycles_1 >= corun_cycles_2 ? solo_cycles_1 : solo_cycles_2;
  const double remaining_fraction = 1.0 - first / survivor_corun;
  const double total = first + remaining_fraction * survivor_solo;
  return ThroughputResult{serial, total};
}

}  // namespace codelayout
