// Instruction-cache simulation (paper Sec. III-A).
//
// Replays a dynamic block trace against a CodeLayout: each block execution
// fetches the cache lines its placed bytes cover. Two measurement flavours
// mirror the paper's two instruments:
//   * "simulated"  — the bare LRU cache, like the Pin-based simulator;
//   * "hw proxy"   — the same cache plus a next-line prefetcher and
//     occasional wrong-path fetches, reproducing why hardware-counter miss
//     reductions come out smaller than pure simulation (Sec. III-C).
// Co-run simulation interleaves two fetch streams round-robin through one
// shared cache, the way two hyper-threads share the L1I; the peer stream
// wraps around until the measured stream finishes.
//
// The cache shape is a HierarchySpec (DESIGN.md §13). The default spec is
// the paper's flat L1I and reproduces the historical behaviour bit for bit;
// a spec with an L2 gives every co-run party a private L1 over one shared
// L2 (sharing moves down a level) and lights up the L2 counters in
// SimResult.
//
// Every simulation replays one event at a time through one templated
// per-event body, driven by a plain loop for solo and by the round-robin
// round for co-run. The body fetches through a cache front that the spec
// picks once per simulation (DESIGN.md §11):
//   * a flat spec with a 4-way L1 — the paper's geometry — runs a flat
//     packed-4 front: SetAssocCache's packed-4 algorithm with the
//     associativity fixed at 4;
//   * every other spec runs a chain front: the party's SetAssocCache L1
//     and, with an L2, the shared SetAssocCache L2 below it.
// A front's one operation is access(line), which returns the depth the
// line was found at. Both fronts produce the same SimResults; there is no
// switch beyond the spec itself.
//
// Solo and two-way co-run simulation exist in two forms: module/layout entry
// points (which build a FetchPlan internally) and plan-based overloads for
// callers that amortize one plan across many simulations (the Lab memoizes
// plans per workload x optimizer, so every cell of a co-run matrix shares
// them); N-way co-run takes plans through a CorunSpec. Results are
// bit-identical between the forms.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/fetch_plan.hpp"
#include "cache/geometry.hpp"
#include "cache/hierarchy.hpp"
#include "ir/module.hpp"
#include "layout/layout.hpp"
#include "trace/trace.hpp"

namespace codelayout {

struct SimOptions {
  /// Cache shape: the paper's flat L1I by default. With an L2 present the
  /// simulators pass L1 misses down to it and fill in the SimResult L2
  /// counters.
  HierarchySpec hierarchy{};
  /// Install line+1 on every demand miss (hardware stream prefetch).
  bool next_line_prefetch = false;
  /// Probability that a branchy block speculatively fetches down the wrong
  /// path (pollutes the cache and shows up in hardware miss counters).
  double wrong_path_rate = 0.0;
  /// Fetch-slot debt per demand miss in co-run interleaving: a missing
  /// thread stalls and yields fetch slots, throttling its own pollution.
  double miss_stall_blocks = 2.0;
  std::uint64_t seed = 1;
  /// Carries nothing (see AnalysisDispatch in trace/trace.hpp).
  AnalysisDispatch dispatch{};

  /// The front (L1) geometry — the level fetch plans are built for.
  [[nodiscard]] const CacheGeometry& geometry() const { return hierarchy.l1; }
};

/// The configuration used for "hardware counter" measurements.
SimOptions hardware_proxy_options(std::uint64_t seed = 1);

struct SimResult {
  std::uint64_t instructions = 0;   ///< fetched instructions (denominator)
  /// Instructions added by the layout itself (entry trampolines, fall-through
  /// fix-up jumps); a subset of `instructions`, and cheaper to execute since
  /// jumps carry no data stalls.
  std::uint64_t overhead_instructions = 0;
  std::uint64_t line_probes = 0;    ///< demand line probes
  std::uint64_t demand_misses = 0;
  std::uint64_t wrong_path_misses = 0;
  std::uint64_t blocks = 0;         ///< block executions replayed
  /// L2 traffic (multi-level hierarchies only; zero under the flat default).
  /// Demand-side attribution: every demand L1 miss probes the L2 once, and
  /// `l2_misses` of those went on to memory. Wrong-path and prefetch fills
  /// are not attributed (they are pollution, not fetch latency).
  std::uint64_t l2_probes = 0;
  std::uint64_t l2_misses = 0;

  friend bool operator==(const SimResult&, const SimResult&) = default;

  /// Misses visible to a hardware counter (at the front level).
  [[nodiscard]] std::uint64_t misses() const {
    return demand_misses + wrong_path_misses;
  }
  /// Misses per fetched instruction — the paper's "miss ratio".
  [[nodiscard]] double miss_ratio() const {
    return instructions ? static_cast<double>(misses()) /
                              static_cast<double>(instructions)
                        : 0.0;
  }
};

/// Average memory access time per demand line probe under the spec's latency
/// ladder: l1_hit + mr1 * memory for a flat spec, l1_hit + mr1 * (l2_hit +
/// mr2 * memory) with an L2.
[[nodiscard]] double amat(const SimResult& sim, const HierarchySpec& hierarchy);

/// Replays `trace` (block granularity) alone in a cold cache.
SimResult simulate_solo(const Module& module, const CodeLayout& layout,
                        const Trace& trace, const SimOptions& options = {});
SimResult simulate_solo(const FetchPlan& plan, const Trace& trace,
                        const SimOptions& options = {});

struct CorunResult {
  SimResult self;  ///< the measured program: its full trace, replayed once
  SimResult peer;  ///< the probe program: wraps around as needed
};

/// Interleaves the two streams block-by-block through one shared cache.
/// `peer_speed` is the peer's fetch rate relative to self (blocks per self
/// block): two SMT threads progress inversely to their CPIs, so a data-bound
/// self sees a faster peer stream and vice versa.
CorunResult simulate_corun(const Module& self_module,
                           const CodeLayout& self_layout,
                           const Trace& self_trace,
                           const Module& peer_module,
                           const CodeLayout& peer_layout,
                           const Trace& peer_trace,
                           const SimOptions& options = {},
                           double peer_speed = 1.0);
CorunResult simulate_corun(const FetchPlan& self_plan, const Trace& self_trace,
                           const FetchPlan& peer_plan, const Trace& peer_trace,
                           const SimOptions& options = {},
                           double peer_speed = 1.0);

/// N-way shared-cache co-run (extension of the paper's Sec. III-F
/// conjecture: Power-class SMT runs 4-8 hardware threads per core).
///
/// The request carries parties, speeds, hierarchy and flavour flags
/// together; the service's wire protocol serializes the same shape. Parties
/// name fetch plans, so callers amortize one plan per layout across many
/// simulations, as the Lab does.
///
/// Party 0 is the measured reference stream: it replays its full trace
/// exactly once, fetches one block per round, and its fetch rate defines the
/// unit every other party's `speed` is relative to — so `parties[0].speed`
/// must be 1.0 (checked). All other parties wrap around until party 0
/// finishes. Streams take turns round-robin with miss-induced fetch stalls
/// as in the two-way simulation; the two-way simulate_corun is exactly this
/// engine at two parties.
struct CorunSpec {
  struct Party {
    const FetchPlan* plan = nullptr;
    const Trace* trace = nullptr;
    double speed = 1.0;  ///< blocks per round relative to the measured stream
  };
  std::vector<Party> parties;  ///< >= 2; parties[0] is the measured stream
  SimOptions options{};        ///< hierarchy + measurement-flavour flags
};

/// Simulates the spec's co-run: one SimResult per party, in party order.
std::vector<SimResult> simulate_corun(const CorunSpec& spec);

/// Expands a block trace to the cache-line trace induced by `layout` —
/// the instruction footprint stream for the Eq. 2 metrics. Line symbols are
/// the line indices of the layout.
Trace line_trace(const Module& module, const CodeLayout& layout,
                 const Trace& block_trace, std::uint32_t line_bytes);

}  // namespace codelayout
