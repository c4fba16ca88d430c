// Parallel-vs-serial equivalence for the sharded TRG build.
//
// The decomposition is designed to be *exact* — not "equivalent up to
// ordering" but bit-identical: each chunk warm-starts its LRU stack in the
// provable serial state (the capped stack's residents are the maximal <=cap
// prefix of the recency order of the preceding events). These tests pin
// that claim edge-for-edge across thread counts, forced shard counts, chunk
// boundaries landing mid-trace, and chunks smaller than the warm-up window,
// and check that model sequences do not change when the pipeline is given
// an analysis pool. The suite also runs under TSan in CI, which checks the
// synchronization of the fan-out itself.
#include <vector>

#include <gtest/gtest.h>

#include "harness/pipeline.hpp"
#include "helpers.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "trg/graph.hpp"

namespace codelayout {
namespace {

using testing::make_trace;

/// Zipf-skewed random trace with bursts (runs), the shape the real
/// workloads produce: hot symbols recur, and repeated symbols form runs so
/// TRG shard boundaries land inside and next to runs.
Trace random_trace(std::uint64_t seed, std::size_t events, Symbol space,
                   double burstiness = 0.3) {
  Rng rng(seed);
  Trace t(Trace::Granularity::kBlock);
  while (t.size() < events) {
    const Symbol s = static_cast<Symbol>(rng.zipf(space, 0.8));
    const std::uint64_t run = 1 + (rng.chance(burstiness) ? rng.below(6) : 0);
    for (std::uint64_t i = 0; i < run && t.size() < events; ++i) {
      t.push_symbol(s);
    }
  }
  return t;
}

void expect_same_trg(const Trg& a, const Trg& b) {
  EXPECT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  ASSERT_EQ(std::vector<Symbol>(a.nodes().begin(), a.nodes().end()),
            std::vector<Symbol>(b.nodes().begin(), b.nodes().end()));
  const auto ea = a.edges_by_weight();
  const auto eb = b.edges_by_weight();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].a, eb[i].a) << "edge " << i;
    EXPECT_EQ(ea[i].b, eb[i].b) << "edge " << i;
    EXPECT_EQ(ea[i].weight, eb[i].weight) << "edge " << i;
  }
}

// ---------- sharded TRG build ------------------------------------------------

TEST(ParallelTrg, ForcedShardCountsMatchSerialEdgeForEdge) {
  const Trace trace = random_trace(23, 8'000, 120);
  const Trg serial = Trg::build(trace, TrgConfig{.window_entries = 64});
  for (std::uint32_t shards : {2u, 3u, 8u, 16u}) {
    // Null pool: the decomposition itself (warm-up + merge) is what is under
    // test; the calling thread computes every shard via the help-first path.
    const Trg sharded = Trg::build(
        trace, TrgConfig{.window_entries = 64, .shards = shards});
    SCOPED_TRACE(shards);
    expect_same_trg(serial, sharded);
  }
}

TEST(ParallelTrg, PoolBuildMatchesSerial) {
  const Trace trace = random_trace(37, 8'000, 100);
  for (const std::uint32_t window : {8u, 64u, 1024u}) {
    const Trg serial = Trg::build(trace, TrgConfig{.window_entries = window});
    for (unsigned threads : {2u, 8u}) {
      ThreadPool pool(threads);
      const Trg parallel = Trg::build(
          trace, TrgConfig{.window_entries = window, .pool = &pool});
      SCOPED_TRACE(window);
      SCOPED_TRACE(threads);
      expect_same_trg(serial, parallel);
    }
  }
}

TEST(ParallelTrg, LongRunsAroundChunkBoundaries) {
  // Runs of up to ~200 events make most chunk boundaries land adjacent to a
  // long run; run-array chunking must keep each run's events in one shard
  // and the warm-up must reproduce the stack state right after it.
  const Trace trace = random_trace(41, 12'000, 40, /*burstiness=*/0.9);
  const Trg serial = Trg::build(trace, TrgConfig{.window_entries = 16});
  for (std::uint32_t shards : {2u, 7u, 16u}) {
    const Trg sharded = Trg::build(
        trace, TrgConfig{.window_entries = 16, .shards = shards});
    SCOPED_TRACE(shards);
    expect_same_trg(serial, sharded);
  }
}

TEST(ParallelTrg, ChunkSmallerThanWarmupWindow) {
  // 40-run chunks against a 1024-entry window: every shard's warm-up scan
  // reaches all the way back to the start of the trace and must still
  // reconstruct the serial stack exactly.
  const Trace trace = random_trace(53, 400, 30);
  const Trg serial = Trg::build(trace, TrgConfig{.window_entries = 1024});
  for (std::uint32_t shards : {2u, 10u}) {
    const Trg sharded = Trg::build(
        trace, TrgConfig{.window_entries = 1024, .shards = shards});
    SCOPED_TRACE(shards);
    expect_same_trg(serial, sharded);
  }
}

TEST(ParallelTrg, MoreShardsThanRunsDegradesGracefully) {
  const Trace tiny = make_trace({1, 2, 1, 3});
  const Trg serial = Trg::build(tiny, TrgConfig{});
  const Trg sharded = Trg::build(tiny, TrgConfig{.shards = 64});
  expect_same_trg(serial, sharded);
}

// ---------- pipeline plumbing ------------------------------------------------

TEST(ParallelPipeline, ModelSequencesIdenticalWithAnalysisPool) {
  const WorkloadSpec spec = find_spec("429.mcf");
  PipelineConfig serial_config;
  const PreparedWorkload prepared = prepare_workload(spec, serial_config);

  ThreadPool pool(4);
  PipelineConfig parallel_config;
  parallel_config.analysis_pool = &pool;
  for (const Optimizer optimizer : kAllOptimizers) {
    SCOPED_TRACE(optimizer.name());
    EXPECT_EQ(model_sequence(prepared, optimizer, serial_config),
              model_sequence(prepared, optimizer, parallel_config));
  }
}

}  // namespace
}  // namespace codelayout
