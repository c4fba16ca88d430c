// Timing model converting simulated cache behaviour into cycles, speedups
// and hyper-threading throughput (paper Sec. III).
//
// SPEC-class programs are data-bound: instruction-cache misses contribute a
// minor share of CPI, which is exactly why the paper's dramatic miss-ratio
// reductions translate into single-digit speedups. The model is
//
//   cycles = I * (base_cpi + data_stall_cpi) + L1I_misses * miss_penalty
//
// with `data_stall_cpi` a per-workload constant (the data-side memory
// behaviour is out of scope of code layout and unchanged by it). Under SMT
// co-run the two hyper-threads share the fetch/issue resources of one core,
// inflating the compute part of CPI by `smt_cpi_inflation`; the cache
// component reflects the shared-L1I interference measured by the co-run
// simulation.
#pragma once

#include "cache/icache_sim.hpp"

namespace codelayout {

struct PerfParams {
  double base_cpi = 0.8;
  /// Cost of a layout-added unconditional jump (trampolines, fall-through
  /// fix-ups): direct jumps are predicted and folded in the fetch stage, so
  /// they are far cheaper than ordinary instructions.
  double jump_cpi = 0.25;
  /// L1I demand-miss penalty in cycles (an L2 hit; fetch-ahead hides part).
  double l1i_miss_penalty = 6.0;
  /// L1I miss penalty under SMT co-run: the two hyper-threads contend for
  /// shared L2 bandwidth and ports, so a miss costs more than in solo run.
  double corun_miss_penalty = 22.0;
  /// CPI inflation from sharing one physical core between two hyper-threads.
  double smt_cpi_inflation = 1.40;
};

/// Cycles for a full solo run measured by `sim`.
double solo_cycles(const SimResult& sim, double data_stall_cpi,
                   const PerfParams& params = {});

/// Cycles for the same program under SMT co-run, using the co-run miss
/// statistics. Scales to the full trace even if `sim` covers a wrapped or
/// partial replay (rates are per-instruction).
double corun_cycles(const SimResult& sim, std::uint64_t full_instructions,
                    double data_stall_cpi, const PerfParams& params = {});

/// Hierarchy-aware composition of the same models. Under a flat spec these
/// are numerically identical to the overloads above (every L1I miss costs
/// the familiar penalty). With an L2 in the spec, the SimResult's per-level
/// counters split the demand misses: an L2 hit costs the familiar penalty,
/// while a miss that went on to memory additionally pays the spec's
/// `memory_cycles - l2_hit_cycles` gap. Wrong-path misses are charged at the
/// front-level penalty either way (they never carry a demand fetch to
/// completion).
double solo_cycles(const SimResult& sim, double data_stall_cpi,
                   const PerfParams& params, const HierarchySpec& hierarchy);
double corun_cycles(const SimResult& sim, std::uint64_t full_instructions,
                    double data_stall_cpi, const PerfParams& params,
                    const HierarchySpec& hierarchy);

/// Fetch speed of an SMT peer relative to `self` in a co-run, from the two
/// programs' data-stall CPIs: hyper-threads progress inversely to their
/// CPIs, so this is clamp((base + self stall) / (base + peer stall), 0.25,
/// 4). The co-run simulation and the closed-form predictor share it.
double corun_peer_speed(double self_stall_cpi, double peer_stall_cpi,
                        const PerfParams& params = {});

/// speedup = baseline / improved (1.04 = 4% faster).
double speedup(double baseline_cycles, double improved_cycles);

/// Hyper-threading throughput (paper Fig. 7): time to finish both programs.
/// Serial: t1 + t2 on one thread. Co-run: both start together; when the
/// shorter finishes, the survivor's remaining work continues at solo speed.
struct ThroughputResult {
  double serial_cycles;
  double corun_cycles;
  /// (serial - corun) / serial, the paper's "throughput improvement".
  [[nodiscard]] double improvement() const {
    return serial_cycles > 0.0
               ? (serial_cycles - corun_cycles) / serial_cycles
               : 0.0;
  }
};

ThroughputResult corun_throughput(double solo_cycles_1, double corun_cycles_1,
                                  double solo_cycles_2, double corun_cycles_2);

}  // namespace codelayout
