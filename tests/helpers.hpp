// Shared test utilities.
#pragma once

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "cache/icache_sim.hpp"
#include "locality/footprint.hpp"
#include "locality/reuse.hpp"
#include "support/bytes.hpp"
#include "trace/trace.hpp"
#include "trg/graph.hpp"

namespace codelayout::testing {

/// Builds a block-granularity trace from raw symbols.
inline Trace make_trace(std::initializer_list<Symbol> symbols) {
  Trace t(Trace::Granularity::kBlock);
  for (Symbol s : symbols) t.push_symbol(s);
  return t;
}

inline Trace make_trace(const std::vector<Symbol>& symbols) {
  Trace t(Trace::Granularity::kBlock);
  for (Symbol s : symbols) t.push_symbol(s);
  return t;
}

/// The paper's Figure 1 example trace: B1 B4 B2 B4 B2 B3 B5 B1 B4, with
/// B1..B5 encoded as symbols 1..5.
inline Trace fig1_trace() { return make_trace({1, 4, 2, 4, 2, 3, 5, 1, 4}); }

/// Rebuilds `t` by replaying its event sequence one push_symbol at a time —
/// the reference construction path the equivalence suite compares traces
/// built by the profiler and the I/O decoder against.
inline Trace flat_replay(const Trace& t) {
  Trace out(t.granularity());
  for (Symbol s : t.symbols()) out.push_symbol(s);
  return out;
}

// ---- Deterministic checksums over analysis-kernel outputs -------------------
//
// FNV-1a (support/bytes.hpp) over the little-endian bytes of each 64-bit
// word. Used by the golden equivalence suite (trace_runs_test) to pin every
// kernel's output: the checksums in golden_suite.inc were captured from an
// earlier flat-vector Trace implementation, so a matching hash proves the
// kernels reproduce the original results bit for bit.

inline std::uint64_t hash_symbols(const Trace& t) {
  std::uint64_t h = fnv1a(kFnvSeed, t.size());
  h = fnv1a(h, t.is_block() ? 0 : 1);
  for (Symbol s : t.symbols()) h = fnv1a(h, s);
  return h;
}

inline std::uint64_t hash_sequence(std::span<const Symbol> seq) {
  std::uint64_t h = fnv1a(kFnvSeed, seq.size());
  for (Symbol s : seq) h = fnv1a(h, s);
  return h;
}

inline std::uint64_t hash_reuse(const ReuseProfile& p) {
  std::uint64_t h = fnv1a(kFnvSeed, p.cold_accesses);
  h = fnv1a(h, p.total_accesses);
  h = fnv1a(h, p.distance_histogram.size());
  for (std::uint64_t v : p.distance_histogram) h = fnv1a(h, v);
  h = fnv1a(h, p.time_histogram.size());
  for (std::uint64_t v : p.time_histogram) h = fnv1a(h, v);
  return h;
}

inline std::uint64_t hash_footprint(const FootprintCurve& c) {
  std::uint64_t h = fnv1a(kFnvSeed, c.trace_length());
  for (double v : c.values()) h = fnv1a(h, std::bit_cast<std::uint64_t>(v));
  return h;
}

inline std::uint64_t hash_trg(const Trg& g) {
  std::uint64_t h = fnv1a(kFnvSeed, g.node_count());
  for (const Trg::Edge& e : g.edges_by_weight()) {
    h = fnv1a(h, e.a);
    h = fnv1a(h, e.b);
    h = fnv1a(h, e.weight);
  }
  return h;
}

inline std::uint64_t hash_sim(const SimResult& r) {
  std::uint64_t h = fnv1a(kFnvSeed, r.instructions);
  h = fnv1a(h, r.overhead_instructions);
  h = fnv1a(h, r.line_probes);
  h = fnv1a(h, r.demand_misses);
  h = fnv1a(h, r.wrong_path_misses);
  h = fnv1a(h, r.blocks);
  return h;
}

}  // namespace codelayout::testing
