#include "cache/icache_sim.hpp"

#include <span>
#include <vector>

#include "support/rng.hpp"
#include "support/trace_recorder.hpp"

namespace codelayout {
namespace {

/// One co-run fetch stream: a program replaying its block trace under a
/// layout. The replay cursor is one event index into the trace. All
/// per-block facts come from the FetchPlan — one flat load per event.
///
/// Streams fetch through a CacheLevel front. Under the flat default the
/// front has no next level, access() returns 0/1, and the accounting is the
/// historical single-cache behaviour bit for bit; with an L2 below, demand
/// misses additionally record L2 probes/misses by hit depth.
class FetchStream {
 public:
  FetchStream(const FetchPlan& plan, const Trace& trace,
              std::uint64_t line_namespace, const SimOptions& options,
              std::uint64_t rng_stream)
      : plan_(plan.blocks().data()),
        symbols_(trace.symbols()),
        namespace_(line_namespace),
        options_(options),
        track_l2_(options.hierarchy.multi_level()),
        rng_(Rng(options.seed).fork(rng_stream)) {
    CL_CHECK(trace.is_block());
    CL_CHECK(!trace.empty());
    CL_CHECK_MSG(plan.line_bytes() == options.hierarchy.l1.line_bytes,
                 "fetch plan was built for a different line size");
    CL_CHECK_MSG(plan.block_count() >= trace.symbol_space(),
                 "fetch plan does not cover the trace's block space");
  }

  /// Executes the next block against `cache`; wraps at the trace end.
  /// Returns true when this step consumed the last event of the trace.
  /// Demand misses accrue fetch-slot debt, and subsequent step() calls are
  /// consumed by stalling instead of fetching.
  bool step(CacheLevel& cache) {
    if (stall_debt_ >= 1.0) {
      stall_debt_ -= 1.0;
      return false;
    }
    const BlockPlan& bp = plan_[symbols_[next_]];

    ++stats_.blocks;
    stats_.instructions += bp.instr_count;
    stats_.overhead_instructions += bp.overhead_instrs;
    for (std::uint32_t i = 0; i < bp.line_count; ++i) {
      const std::uint64_t line = namespace_ + bp.first_line + i;
      ++stats_.line_probes;
      const std::uint32_t depth = cache.access(line);
      if (depth != 0) {
        ++stats_.demand_misses;
        if (track_l2_) {
          ++stats_.l2_probes;
          if (depth > 1) ++stats_.l2_misses;
        }
        stall_debt_ += options_.miss_stall_blocks;
        if (options_.next_line_prefetch) cache.prefill(line + 1);
      }
    }
    // Speculative wrong-path fetch past a conditional branch: the fetch unit
    // runs ahead on the not-taken path before the branch resolves.
    if (options_.wrong_path_rate > 0.0 && bp.branchy != 0 &&
        rng_.chance(options_.wrong_path_rate)) {
      const std::uint64_t line = namespace_ + bp.first_line + bp.line_count;
      if (cache.access(line) != 0) ++stats_.wrong_path_misses;
    }

    if (++next_ == symbols_.size()) {
      next_ = 0;
      return true;
    }
    return false;
  }

  [[nodiscard]] const SimResult& stats() const { return stats_; }

 private:
  const BlockPlan* plan_;
  std::span<const Symbol> symbols_;
  std::uint64_t namespace_;
  SimOptions options_;
  bool track_l2_;
  Rng rng_;
  std::size_t next_ = 0;  ///< index of the next event to fetch
  double stall_debt_ = 0.0;
  SimResult stats_;
};

/// Shared N-way co-run engine: round-robin interleaving, one event at a
/// time. Party 0 is the measured stream (one block per round, ends the
/// simulation when its trace wraps); parties 1..P-1 run at fractional
/// `speeds` through per-party credit accumulators, and every stream stalls
/// for `miss_stall_blocks` fetch slots per demand miss.
///
/// Hierarchy topology: a flat spec shares the single L1 between all parties
/// (the paper's SMT model); with an L2 each party fetches through a private
/// L1 front and sharing moves to the L2.
std::vector<SimResult> run_corun_engine(
    std::span<const CorunSpec::Party> parties, const SimOptions& options) {
  CL_CHECK_MSG(parties.size() >= 2, "need at least two co-runners");
  for (const CorunSpec::Party& p : parties) {
    CL_CHECK(p.plan && p.trace);
    CL_CHECK(p.speed > 0.0);
  }
  CL_CHECK_MSG(parties[0].speed == 1.0,
               "party 0 is the measured reference stream: it fetches one "
               "block per round and defines the unit peer speeds are "
               "relative to");

  const std::size_t P = parties.size();
  CacheHierarchy hier(options.hierarchy, P);
  std::vector<FetchStream> streams;
  streams.reserve(P);
  std::vector<double> credit(P, 0.0);
  for (std::size_t i = 0; i < P; ++i) {
    // Disjoint line-id namespaces: P address spaces sharing one cache.
    streams.emplace_back(*parties[i].plan, *parties[i].trace,
                         static_cast<std::uint64_t>(i) << 40, options,
                         /*rng_stream=*/i + 1);
  }

  for (;;) {
    const bool done = streams[0].step(hier.front(0));
    for (std::size_t i = 1; i < P; ++i) {
      credit[i] += parties[i].speed;
      while (credit[i] >= 1.0) {
        streams[i].step(hier.front(i));
        credit[i] -= 1.0;
      }
    }
    if (done) break;
  }

  std::vector<SimResult> results;
  results.reserve(streams.size());
  for (const FetchStream& s : streams) results.push_back(s.stats());
  return results;
}

}  // namespace

SimOptions hardware_proxy_options(std::uint64_t seed) {
  return SimOptions{.next_line_prefetch = true,
                    .wrong_path_rate = 0.08,
                    .seed = seed};
}

std::vector<LevelStats> level_breakdown(const SimResult& sim,
                                        const HierarchySpec& hierarchy) {
  std::vector<LevelStats> levels;
  levels.push_back(LevelStats{sim.line_probes, sim.demand_misses});
  if (hierarchy.multi_level()) {
    levels.push_back(LevelStats{sim.l2_probes, sim.l2_misses});
  }
  return levels;
}

double amat(const SimResult& sim, const HierarchySpec& hierarchy) {
  const double mr1 =
      sim.line_probes ? static_cast<double>(sim.demand_misses) /
                            static_cast<double>(sim.line_probes)
                      : 0.0;
  if (!hierarchy.multi_level()) {
    return hierarchy.l1_hit_cycles + mr1 * hierarchy.memory_cycles;
  }
  const double mr2 = sim.l2_probes ? static_cast<double>(sim.l2_misses) /
                                         static_cast<double>(sim.l2_probes)
                                   : 0.0;
  return hierarchy.l1_hit_cycles +
         mr1 * (hierarchy.l2_hit_cycles + mr2 * hierarchy.memory_cycles);
}

namespace {

/// Solo replay: the per-event loop of FetchStream::step() specialized for
/// one stream — no stall debt, no line namespace, no wrap-around cursor; one
/// plan load and a tight probe loop per event. The probe sequence, prefills,
/// and wrong-path draws (Rng(seed).fork(1)) are exactly step()'s. Kept
/// beside step() because it replays the suite's traces faster than a
/// step() loop (DESIGN.md §15).
SimResult solo_flat(const FetchPlan& plan, const Trace& trace,
                    const SimOptions& options) {
  CL_CHECK(trace.is_block());
  CL_CHECK(!trace.empty());
  CL_CHECK_MSG(plan.line_bytes() == options.hierarchy.l1.line_bytes,
               "fetch plan was built for a different line size");
  CL_CHECK_MSG(plan.block_count() >= trace.symbol_space(),
               "fetch plan does not cover the trace's block space");
  CacheHierarchy hier(options.hierarchy);
  CacheLevel& front = hier.front(0);
  const BlockPlan* plans = plan.blocks().data();
  const bool track_l2 = options.hierarchy.multi_level();
  const bool wrong_path = options.wrong_path_rate > 0.0;
  Rng rng = Rng(options.seed).fork(1);
  SimResult stats;
  for (const Symbol s : trace.symbols()) {
    const BlockPlan& bp = plans[s];
    ++stats.blocks;
    stats.instructions += bp.instr_count;
    stats.overhead_instructions += bp.overhead_instrs;
    for (std::uint32_t i = 0; i < bp.line_count; ++i) {
      const std::uint64_t line = bp.first_line + i;
      ++stats.line_probes;
      const std::uint32_t depth = front.access(line);
      if (depth != 0) {
        ++stats.demand_misses;
        if (track_l2) {
          ++stats.l2_probes;
          if (depth > 1) ++stats.l2_misses;
        }
        if (options.next_line_prefetch) front.prefill(line + 1);
      }
    }
    if (wrong_path && bp.branchy != 0 && rng.chance(options.wrong_path_rate)) {
      const std::uint64_t line = bp.first_line + bp.line_count;
      if (front.access(line) != 0) ++stats.wrong_path_misses;
    }
  }
  return stats;
}

}  // namespace

SimResult simulate_solo(const FetchPlan& plan, const Trace& trace,
                        const SimOptions& options) {
  CODELAYOUT_PHASE("icache_solo", "cache", "cache.icache_solo.wall_ns",
                   {"events", std::uint64_t{trace.size()}});
  return solo_flat(plan, trace, options);
}

SimResult simulate_solo(const Module& module, const CodeLayout& layout,
                        const Trace& trace, const SimOptions& options) {
  const FetchPlan plan(module, layout, options.geometry().line_bytes);
  return simulate_solo(plan, trace, options);
}

CorunResult simulate_corun(const FetchPlan& self_plan, const Trace& self_trace,
                           const FetchPlan& peer_plan, const Trace& peer_trace,
                           const SimOptions& options, double peer_speed) {
  CL_CHECK(peer_speed > 0.0);
  CODELAYOUT_PHASE("icache_corun", "cache", "cache.icache_corun.wall_ns",
                   {"self_events", std::uint64_t{self_trace.size()}},
                   {"peer_events", std::uint64_t{peer_trace.size()}});
  const CorunSpec::Party parties[2] = {{&self_plan, &self_trace, 1.0},
                                       {&peer_plan, &peer_trace, peer_speed}};
  const std::vector<SimResult> results = run_corun_engine(parties, options);
  return CorunResult{results[0], results[1]};
}

CorunResult simulate_corun(const Module& self_module,
                           const CodeLayout& self_layout,
                           const Trace& self_trace,
                           const Module& peer_module,
                           const CodeLayout& peer_layout,
                           const Trace& peer_trace,
                           const SimOptions& options, double peer_speed) {
  const FetchPlan self_plan(self_module, self_layout,
                            options.geometry().line_bytes);
  const FetchPlan peer_plan(peer_module, peer_layout,
                            options.geometry().line_bytes);
  return simulate_corun(self_plan, self_trace, peer_plan, peer_trace, options,
                        peer_speed);
}

std::vector<SimResult> simulate_corun(const CorunSpec& spec) {
  CODELAYOUT_PHASE("icache_corun_many", "cache",
                   "cache.icache_corun_many.wall_ns",
                   {"parties", std::uint64_t{spec.parties.size()}});
  return run_corun_engine(spec.parties, spec.options);
}

Trace line_trace(const Module& module, const CodeLayout& layout,
                 const Trace& block_trace, std::uint32_t line_bytes) {
  (void)module;
  CL_CHECK(block_trace.is_block());
  Trace out(Trace::Granularity::kBlock);
  out.reserve(block_trace.size() * 2);
  for (const Symbol s : block_trace.symbols()) {
    const auto span = layout.lines_of(BlockId(s), line_bytes);
    for (std::uint32_t l = 0; l < span.line_count; ++l) {
      out.push_symbol(static_cast<Symbol>(span.first_line + l));
    }
  }
  return out.trimmed();
}

}  // namespace codelayout
