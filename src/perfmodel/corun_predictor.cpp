#include "perfmodel/corun_predictor.hpp"

#include <algorithm>

#include "cache/icache_sim.hpp"
#include "locality/missmodel.hpp"
#include "support/check.hpp"
#include "support/registry.hpp"
#include "support/trace_recorder.hpp"

namespace codelayout {
namespace {

/// Modeled full-trace runtime from predicted (fractional) miss counts — the
/// perfmodel solo/corun formulas with the simulator's integer counters
/// replaced by the model's expectations.
double modeled_solo_cycles(const SoloProfile& p, double front_misses,
                           double l2_misses, const PerfParams& params,
                           const HierarchySpec& hierarchy) {
  const double program =
      static_cast<double>(p.instructions - p.overhead_instructions);
  const double overhead = static_cast<double>(p.overhead_instructions);
  double cycles = program * (params.base_cpi + p.data_stall_cpi) +
                  overhead * params.jump_cpi +
                  front_misses * params.l1i_miss_penalty;
  if (hierarchy.multi_level()) {
    cycles += l2_misses * (hierarchy.memory_cycles - hierarchy.l2_hit_cycles);
  }
  return cycles;
}

double modeled_corun_cycles(const SoloProfile& p, double front_misses,
                            double l2_misses, const PerfParams& params,
                            const HierarchySpec& hierarchy) {
  const double program =
      static_cast<double>(p.instructions - p.overhead_instructions);
  const double overhead = static_cast<double>(p.overhead_instructions);
  double cycles = (program * (params.base_cpi + p.data_stall_cpi) +
                   overhead * params.jump_cpi) *
                      params.smt_cpi_inflation +
                  front_misses * params.corun_miss_penalty;
  if (hierarchy.multi_level()) {
    cycles += l2_misses * (hierarchy.memory_cycles - hierarchy.l2_hit_cycles);
  }
  return cycles;
}

/// One party's prediction against a peer running at `peer_speed` relative to
/// it. Per-probe model probabilities are scaled by the party's
/// probes-per-instruction to land in SimResult units.
PartyPrediction predict_party(const SoloProfile& self,
                              const SoloProfile& peer, double peer_speed,
                              const HierarchySpec& hierarchy,
                              const PerfParams& params) {
  const double l1_capacity = static_cast<double>(hierarchy.l1.lines());
  const double ppi = self.probes_per_instruction();

  PartyPrediction out;
  double solo_front_probe = 0.0;
  double corun_front_probe = 0.0;
  double solo_l2_probe = 0.0;
  double corun_l2_probe = 0.0;
  if (hierarchy.multi_level()) {
    // The L1 front is private per hardware thread: the peer never displaces
    // lines there, so the front miss ratio is the solo one in both modes and
    // the Eq. 1/2 composition moves down to the shared L2 capacity. The L2
    // only sees the front's miss stream, so its memory rate is capped by the
    // front rate.
    const double l2_capacity = static_cast<double>(hierarchy.l2->lines());
    solo_front_probe = solo_miss_ratio(self.lines, l1_capacity);
    corun_front_probe = solo_front_probe;
    solo_l2_probe =
        std::min(solo_miss_ratio(self.lines, l2_capacity), solo_front_probe);
    corun_l2_probe = std::min(
        corun_miss_ratio(self.lines, peer.lines, l2_capacity, peer_speed),
        corun_front_probe);
  } else {
    // Flat spec: the front itself is shared (the paper's SMT L1I model).
    solo_front_probe = solo_miss_ratio(self.lines, l1_capacity);
    corun_front_probe =
        corun_miss_ratio(self.lines, peer.lines, l1_capacity, peer_speed);
  }

  out.solo_miss_ratio = solo_front_probe * ppi;
  out.corun_miss_ratio = corun_front_probe * ppi;
  out.solo_l2_miss_rate = solo_l2_probe * ppi;
  out.corun_l2_miss_rate = corun_l2_probe * ppi;

  const double instructions = static_cast<double>(self.instructions);
  out.predicted_misses = out.corun_miss_ratio * instructions;
  out.solo_cycles = modeled_solo_cycles(
      self, out.solo_miss_ratio * instructions,
      out.solo_l2_miss_rate * instructions, params, hierarchy);
  out.corun_cycles = modeled_corun_cycles(
      self, out.predicted_misses, out.corun_l2_miss_rate * instructions,
      params, hierarchy);
  return out;
}

}  // namespace

SoloProfile build_solo_profile(std::string workload, const FetchPlan& plan,
                               const Trace& eval_blocks, double data_stall_cpi,
                               std::uint32_t line_bytes) {
  CL_CHECK_MSG(plan.line_bytes() == line_bytes,
               "fetch plan built for line size " << plan.line_bytes()
                                                 << ", profile wants "
                                                 << line_bytes);
  SoloProfile profile;
  profile.workload = std::move(workload);
  profile.line_bytes = line_bytes;
  profile.data_stall_cpi = data_stall_cpi;

  // The cache-line symbol space of this layout: one past the last line any
  // block fetches.
  std::uint64_t line_space = 0;
  for (const BlockPlan& block : plan.blocks()) {
    line_space = std::max(line_space,
                          block.first_line + std::uint64_t{block.line_count});
  }

  // One fused pass: instruction totals and the footprint stream, straight
  // from the plan's per-block line spans — the line trace itself is never
  // materialized.
  FootprintBuilder builder(static_cast<Symbol>(line_space));
  for (const Symbol s : eval_blocks.symbols()) {
    const BlockPlan& block = plan.block(BlockId(s));
    profile.instructions += block.instr_count;
    profile.overhead_instructions += block.overhead_instrs;
    builder.span(static_cast<Symbol>(block.first_line), block.line_count);
  }
  profile.line_probes = builder.positions();
  profile.lines = std::move(builder).finish();
  return profile;
}

CorunPrediction predict_corun(const SoloProfile& a, const SoloProfile& b,
                              const HierarchySpec& hierarchy,
                              const PerfParams& params) {
  MetricsRegistry& registry = MetricsRegistry::global();
  if (registry.enabled()) registry.counter("perfmodel.predict.calls").add(1);
  if (CostCounters* cost = current_job_context().cost) {
    cost->predict_calls.fetch_add(1, std::memory_order_relaxed);
  }

  CorunPrediction out;
  // Each party sees the other at the window scale of their CPI ratio — the
  // same clamped band the bit-exact interleaving uses for fetch speeds.
  out.peer_speed =
      corun_peer_speed(a.data_stall_cpi, b.data_stall_cpi, params);
  out.self = predict_party(a, b, out.peer_speed, hierarchy, params);
  out.peer = predict_party(
      b, a, corun_peer_speed(b.data_stall_cpi, a.data_stall_cpi, params),
      hierarchy, params);
  return out;
}

double predicted_solo_misses(const SoloProfile& profile,
                             const HierarchySpec& hierarchy) {
  const double capacity = static_cast<double>(hierarchy.l1.lines());
  return solo_miss_ratio(profile.lines, capacity) *
         profile.probes_per_instruction() *
         static_cast<double>(profile.instructions);
}

}  // namespace codelayout
