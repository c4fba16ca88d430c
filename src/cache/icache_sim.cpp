#include "cache/icache_sim.hpp"

#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "cache/set_assoc.hpp"
#include "support/rng.hpp"
#include "support/trace_recorder.hpp"

namespace codelayout {
namespace {

/// The paper's flat 4-way L1 (no L2): SetAssocCache's packed-4 sets with the
/// associativity fixed at 4 and each set in one cache line. Shared by every
/// co-run party.
class FlatL1Front {
 public:
  static bool fits(const HierarchySpec& spec) {
    return !spec.multi_level() && spec.l1.associativity == kWays;
  }

  explicit FlatL1Front(const HierarchySpec& spec)
      : sets_(spec.l1.sets()), set_mask_(spec.l1.sets() - 1) {}

  /// Hit depth, as ChainFront::access: 0 = hit, 1 = miss.
  std::uint32_t access(std::uint64_t line) {
    Set& set = sets_[line & set_mask_];
    return packed4::touch(set.tags, set.lanes, set.order, line, kWays) ? 0 : 1;
  }

 private:
  static constexpr std::uint32_t kWays = 4;

  /// One set's lanes, full tags and recency permutation, in one cache line.
  struct alignas(64) Set {
    std::uint64_t tags[kWays] = {packed4::kEmpty, packed4::kEmpty,
                                 packed4::kEmpty, packed4::kEmpty};
    std::uint64_t lanes = 0;
    std::uint8_t order = packed4::kIdentityOrder;
  };

  std::vector<Set> sets_;
  std::uint64_t set_mask_ = 0;
};

/// Every other spec: the party's L1 and, with an L2 spec, the L2 below it.
/// The caches belong to the simulation (see with_fronts); a front only
/// links them.
struct ChainFront {
  SetAssocCache* l1;
  SetAssocCache* l2;  ///< nullptr under a flat spec

  /// Hit depth: 0 = L1 hit, 1 = an L1 miss that hit the L2 or had no L2
  /// below it, 2 = an L2 miss. Each level the fetch reaches installs the
  /// line, so an L1 hit never touches the L2.
  std::uint32_t access(std::uint64_t line) {
    if (l1->access(line)) return 0;
    return l2 == nullptr || l2->access(line) ? 1 : 2;
  }
};

/// Whether demand misses through `front` go on to an L2 and count there.
constexpr bool has_l2(const FlatL1Front&) { return false; }
bool has_l2(const ChainFront& front) { return front.l2 != nullptr; }

/// Builds the caches `spec` names for `parties` fetch streams and calls
/// `replay(front_of)`, where front_of(i) is party i's front. The spec picks
/// the front once, here: the paper's flat 4-way L1 is one FlatL1Front
/// shared by all parties; every other flat spec is one shared SetAssocCache
/// L1 (the paper's SMT model at another shape); with an L2, each party
/// fetches through a private L1 and sharing moves to the one L2.
template <typename Replay>
auto with_fronts(const HierarchySpec& spec, std::size_t parties,
                 Replay&& replay) {
  spec.validate();
  if (FlatL1Front::fits(spec)) {
    FlatL1Front front(spec);
    return replay([&](std::size_t) -> FlatL1Front& { return front; });
  }
  std::optional<SetAssocCache> l2;
  if (spec.l2) l2.emplace(*spec.l2);
  std::vector<SetAssocCache> l1s(l2 ? parties : 1, SetAssocCache(spec.l1));
  std::vector<ChainFront> fronts;
  fronts.reserve(parties);
  for (std::size_t i = 0; i < parties; ++i) {
    fronts.push_back({&l1s[l2 ? i : 0], l2 ? &*l2 : nullptr});
  }
  return replay([&](std::size_t i) -> ChainFront& { return fronts[i]; });
}

void check_replay(const FetchPlan& plan, const Trace& trace,
                  const SimOptions& options) {
  CL_CHECK(trace.is_block());
  CL_CHECK(!trace.empty());
  CL_CHECK_MSG(plan.line_bytes() == options.hierarchy.l1.line_bytes,
               "fetch plan was built for a different line size");
  CL_CHECK_MSG(plan.block_count() >= trace.symbol_space(),
               "fetch plan does not cover the trace's block space");
}

/// The measurement flavour of one simulation, read once from SimOptions.
struct Flavour {
  bool next_line_prefetch;
  double wrong_path_rate;

  explicit Flavour(const SimOptions& options)
      : next_line_prefetch(options.next_line_prefetch),
        wrong_path_rate(options.wrong_path_rate) {}
};

/// The per-event body of every simulation: one block execution fetched
/// through `front`. Demand probes cover the block's lines (offset into the
/// party's line namespace); each demand miss fetches line+1 under the
/// prefetch flavour, and a branchy block may draw a speculative wrong-path
/// fetch of the line past its end. Only demand misses count at the L2; a
/// prefetch or wrong-path fetch still fills every level it reaches. Returns
/// the block's demand misses. Always inlined, as is FetchStream::step(): a
/// call per replayed block cost solo replay 13-26%, and inlining this alone
/// left the flat co-run no faster than inlining neither.
template <typename Front>
[[gnu::always_inline]] inline std::uint32_t fetch_block(
    Front& front, const BlockPlan& bp, std::uint64_t line_namespace,
    const Flavour& flavour, Rng& rng, SimResult& stats) {
  ++stats.blocks;
  stats.instructions += bp.instr_count;
  stats.overhead_instructions += bp.overhead_instrs;
  std::uint32_t misses = 0;
  for (std::uint32_t i = 0; i < bp.line_count; ++i) {
    const std::uint64_t line = line_namespace + bp.first_line + i;
    const std::uint32_t depth = front.access(line);
    if (depth != 0) {
      ++misses;
      if (has_l2(front)) {
        ++stats.l2_probes;
        if (depth > 1) ++stats.l2_misses;
      }
      if (flavour.next_line_prefetch) (void)front.access(line + 1);
    }
  }
  stats.line_probes += bp.line_count;
  stats.demand_misses += misses;
  // Speculative wrong-path fetch past a conditional branch: the fetch unit
  // runs ahead on the not-taken path before the branch resolves.
  if (flavour.wrong_path_rate > 0.0 && bp.branchy != 0 &&
      rng.chance(flavour.wrong_path_rate)) {
    const std::uint64_t line = line_namespace + bp.first_line + bp.line_count;
    if (front.access(line) != 0) ++stats.wrong_path_misses;
  }
  return misses;
}

/// Solo driver: the trace once through a cold front, party 0's line
/// namespace (0) and RNG stream (fork(1)).
template <typename Front>
SimResult replay_solo(Front& front, const FetchPlan& plan, const Trace& trace,
                      const SimOptions& options) {
  const BlockPlan* plans = plan.blocks().data();
  const Flavour flavour(options);
  Rng rng = Rng(options.seed).fork(1);
  SimResult stats;
  for (const Symbol s : trace.symbols()) {
    (void)fetch_block(front, plans[s], 0, flavour, rng, stats);
  }
  return stats;
}

/// One co-run fetch stream: a program replaying its block trace under a
/// layout through its party's front. The replay cursor is one event index
/// into the trace.
template <typename Front>
class FetchStream {
 public:
  FetchStream(const FetchPlan& plan, const Trace& trace, Front& front,
              std::uint64_t line_namespace, const SimOptions& options,
              std::uint64_t rng_stream)
      : plan_(plan.blocks().data()),
        symbols_(trace.symbols()),
        front_(&front),
        namespace_(line_namespace),
        flavour_(options),
        miss_stall_blocks_(options.miss_stall_blocks),
        rng_(Rng(options.seed).fork(rng_stream)) {
    check_replay(plan, trace, options);
  }

  /// Executes the next block; wraps at the trace end. Returns true when
  /// this step consumed the last event of the trace. Demand misses accrue
  /// fetch-slot debt, and subsequent step() calls are consumed by stalling
  /// instead of fetching.
  [[gnu::always_inline]] bool step() {
    if (stall_debt_ >= 1.0) {
      stall_debt_ -= 1.0;
      return false;
    }
    std::uint32_t misses = fetch_block(*front_, plan_[symbols_[next_]],
                                       namespace_, flavour_, rng_, stats_);
    // One charge per miss, added one at a time: the same double sums as
    // charging each miss where it happens.
    for (; misses != 0; --misses) stall_debt_ += miss_stall_blocks_;
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
  Front* front_;
  std::uint64_t namespace_;
  Flavour flavour_;
  double miss_stall_blocks_;
  Rng rng_;
  std::size_t next_ = 0;  ///< index of the next event to fetch
  double stall_debt_ = 0.0;
  SimResult stats_;
};

/// Co-run driver: round-robin interleaving, one event at a time. Party 0 is
/// the measured stream (one block per round, ends the simulation when its
/// trace wraps); parties 1..P-1 run at fractional `speeds` through
/// per-party credit accumulators, and every stream stalls for
/// `miss_stall_blocks` fetch slots per demand miss. Party i fetches through
/// `front_of(i)`.
template <typename FrontOf>
std::vector<SimResult> corun_rounds(std::span<const CorunSpec::Party> parties,
                                    const SimOptions& options,
                                    FrontOf front_of) {
  using Front = std::remove_reference_t<decltype(front_of(0))>;
  const std::size_t P = parties.size();
  std::vector<FetchStream<Front>> streams;
  streams.reserve(P);
  std::vector<double> credit(P, 0.0);
  for (std::size_t i = 0; i < P; ++i) {
    // Disjoint line-id namespaces: P address spaces sharing one cache.
    streams.emplace_back(*parties[i].plan, *parties[i].trace, front_of(i),
                         static_cast<std::uint64_t>(i) << 40, options,
                         /*rng_stream=*/i + 1);
  }

  for (;;) {
    const bool done = streams[0].step();
    for (std::size_t i = 1; i < P; ++i) {
      credit[i] += parties[i].speed;
      while (credit[i] >= 1.0) {
        streams[i].step();
        credit[i] -= 1.0;
      }
    }
    if (done) break;
  }

  std::vector<SimResult> results;
  results.reserve(streams.size());
  for (const FetchStream<Front>& s : streams) results.push_back(s.stats());
  return results;
}

/// Shared N-way co-run engine over the fronts the spec picks.
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

  return with_fronts(options.hierarchy, parties.size(), [&](auto front_of) {
    return corun_rounds(parties, options, front_of);
  });
}

}  // namespace

SimOptions hardware_proxy_options(std::uint64_t seed) {
  return SimOptions{.next_line_prefetch = true,
                    .wrong_path_rate = 0.08,
                    .seed = seed};
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

SimResult simulate_solo(const FetchPlan& plan, const Trace& trace,
                        const SimOptions& options) {
  CODELAYOUT_PHASE("icache_solo", "cache", "cache.icache_solo.wall_ns",
                   {"events", std::uint64_t{trace.size()}});
  check_replay(plan, trace, options);
  return with_fronts(options.hierarchy, 1, [&](auto front_of) {
    return replay_solo(front_of(0), plan, trace, options);
  });
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
