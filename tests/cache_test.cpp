#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "cache/icache_sim.hpp"
#include "cache/set_assoc.hpp"
#include "exec/interpreter.hpp"
#include "ir/builder.hpp"

namespace codelayout {
namespace {

CacheGeometry tiny_cache() {
  // 4 sets x 2 ways x 64B lines = 512B.
  return CacheGeometry{512, 2, 64};
}

TEST(CacheGeometry, DerivedQuantities) {
  EXPECT_EQ(kL1I.lines(), 512u);
  EXPECT_EQ(kL1I.sets(), 128u);
  EXPECT_NO_THROW(kL1I.validate());
}

TEST(CacheGeometry, RejectsIndivisibleSize) {
  CacheGeometry g{1000, 4, 64};
  EXPECT_THROW(g.validate(), ContractError);
}

TEST(CacheGeometry, RejectsNonPowerOfTwoSetCount) {
  // 1536B / (64B x 4 ways) = 6 sets: divisible, but not a power of two.
  // The check lives in validate() so every consumer of a geometry rejects
  // it with the same message, not just SetAssocCache's constructor.
  CacheGeometry g{1536, 4, 64};
  try {
    g.validate();
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("power of two"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(SetAssocCache cache(g), ContractError);
}

TEST(CacheGeometry, RejectsShapesPastTheLimits) {
  // Each message names the limit it hit.
  const auto rejection = [](const CacheGeometry& g) -> std::string {
    try {
      g.validate();
    } catch (const ContractError& e) {
      return e.what();
    }
    return "accepted";
  };
  // 1 TiB / 64 B lines = 2^34 lines (2^32 sets of 4 ways).
  EXPECT_NE(rejection(CacheGeometry{std::uint64_t{1} << 40, 4, 64})
                .find("limit of 1048576 lines"),
            std::string::npos);
  // One set of 2^20 ways: within the line cap, past the way cap.
  EXPECT_NE(rejection(CacheGeometry{std::uint64_t{64} << 20, 1u << 20, 64})
                .find("limit of 1024 ways"),
            std::string::npos);
  EXPECT_NE(rejection(CacheGeometry{std::uint64_t{8} << 20, 4, 2u << 20})
                .find("limit of 1048576 bytes"),
            std::string::npos);
  // The limits themselves are accepted.
  EXPECT_NO_THROW(
      (CacheGeometry{std::uint64_t{64} << 20, 1024, 64}.validate()));
  EXPECT_NO_THROW(
      (CacheGeometry{std::uint64_t{4} << 20, 4, 1u << 20}.validate()));
}

TEST(SetAssoc, ColdMissThenHit) {
  SetAssocCache c(tiny_cache());
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
}

TEST(SetAssoc, LruEvictionWithinSet) {
  SetAssocCache c(tiny_cache());
  // Lines 0, 4, 8 all map to set 0 (4 sets); associativity 2.
  c.access(0);
  c.access(4);
  EXPECT_TRUE(c.access(0));   // 0 now MRU, 4 LRU
  c.access(8);                // evicts 4
  EXPECT_TRUE(c.access(0));
  EXPECT_FALSE(c.access(4));  // was evicted
}

TEST(SetAssoc, DifferentSetsDoNotConflict) {
  SetAssocCache c(tiny_cache());
  for (std::uint64_t line = 0; line < 8; ++line) c.access(line);
  // 8 lines over 4 sets x 2 ways fit exactly.
  for (std::uint64_t line = 0; line < 8; ++line) EXPECT_TRUE(c.access(line));
}

TEST(SetAssoc, WidePathMatchesPackedSemantics) {
  // Associativity 8 exceeds the 4-way packed representation; exercises the
  // byte-tag wide path with the same true-LRU behaviour.
  SetAssocCache c(CacheGeometry{/*size_bytes=*/1024, /*associativity=*/8,
                                /*line_bytes=*/64});
  // 2 sets x 8 ways. Fill set 0 with 8 lines, touch the oldest, add one.
  for (std::uint64_t i = 0; i < 8; ++i) c.access(i * 2);  // even lines: set 0
  EXPECT_TRUE(c.access(0));    // promote the oldest to MRU
  EXPECT_FALSE(c.access(16));  // evicts line 2, not line 0
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(4));
  EXPECT_FALSE(c.access(2));   // was evicted
}

TEST(SetAssoc, PackedAndGenericAgreeOnRandomStream) {
  // assoc 4 (packed) vs an 8-way generic cache can't be compared directly;
  // instead drive packed assoc 2 against the same geometry's semantics via
  // a pseudo-random line stream and check hit/miss equality with a model
  // kept in recency order.
  SetAssocCache c(tiny_cache());  // 4 sets x 2 ways: packed
  std::vector<std::vector<std::uint64_t>> model(4);
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t line = x % 23;
    const auto set = static_cast<std::size_t>(line & 3);
    auto& ways = model[set];
    const auto it = std::find(ways.begin(), ways.end(), line);
    const bool model_hit = it != ways.end();
    if (model_hit) ways.erase(it);
    ways.insert(ways.begin(), line);
    if (ways.size() > 2) ways.pop_back();
    ASSERT_EQ(c.access(line), model_hit) << "event " << i << " line " << line;
  }
}

/// Drives a SetAssocCache against a reference true-LRU model (per-set vectors
/// kept in recency order) on a pseudo-random line stream. Hit/miss equality
/// on every event under thrashing pins the eviction sequence exactly, so one
/// helper validates all three internal representations.
void drive_against_model(const CacheGeometry& geom,
                         std::uint64_t distinct_lines, int events) {
  SetAssocCache c(geom);
  const std::size_t sets = geom.sets();
  std::vector<std::vector<std::uint64_t>> model(sets);
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < events; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t line = x % distinct_lines;
    auto& ways = model[static_cast<std::size_t>(line % sets)];
    const auto it = std::find(ways.begin(), ways.end(), line);
    const bool model_hit = it != ways.end();
    if (model_hit) ways.erase(it);
    ways.insert(ways.begin(), line);
    if (ways.size() > geom.associativity) ways.pop_back();
    ASSERT_EQ(c.access(line), model_hit)
        << geom.to_string() << " event " << i << " line " << line;
  }
}

TEST(SetAssoc, PackedWide8WayAgreesWithModelLru) {
  // 8 ways -> the byte-tag SWAR representation (one u64 word per set).
  drive_against_model(CacheGeometry{4096, 8, 64}, 97, 8000);
}

TEST(SetAssoc, PackedWide16WayAgreesWithModelLru) {
  // 16 ways -> two tag words per set, full nibble permutation.
  drive_against_model(CacheGeometry{16384, 16, 64}, 331, 12000);
}

TEST(SetAssoc, PackedWideSingleSetFullAssocAgreesWithModelLru) {
  // One fully-associative 16-way set: every access churns the same
  // permutation word, the hardest case for the nibble promote.
  drive_against_model(CacheGeometry{1024, 16, 64}, 23, 8000);
}

TEST(SetAssoc, PackedWidePartialWordAssocAgreesWithModelLru) {
  // Associativity 5: lanes 5..7 of the tag word stay empty forever and the
  // victim is read from nibble position assoc-1 = 4, not 7.
  drive_against_model(CacheGeometry{1280, 5, 64}, 61, 8000);
}

TEST(SetAssoc, GenericAbovePackedWideAgreesWithModelLru) {
  // 17 ways exceeds the widest packed representation.
  drive_against_model(CacheGeometry{2176, 17, 64}, 61, 8000);
}

TEST(SetAssoc, DegenerateGeometriesAgreeWithModelLru) {
  drive_against_model(CacheGeometry{64, 1, 64}, 3, 2000);    // one line
  drive_against_model(CacheGeometry{256, 1, 64}, 13, 4000);  // direct-mapped
}

TEST(SetAssoc, NonDefaultLineSizesAgreeWithModelLru) {
  // The set count derives from line_bytes; 32B and 128B lines shift it.
  drive_against_model(CacheGeometry{2048, 8, 32}, 97, 8000);    // 8 sets
  drive_against_model(CacheGeometry{8192, 4, 128}, 97, 8000);   // 16 sets
  drive_against_model(CacheGeometry{4096, 16, 32}, 131, 8000);  // 8 sets
}

TEST(SetAssoc, CyclicThrashInOneSet) {
  // One more line than a set has ways, cycled: LRU misses every time, on
  // each of the three representations.
  const auto misses = [](const CacheGeometry& geom,
                         std::initializer_list<std::uint64_t> cycle) {
    SetAssocCache c(geom);
    int count = 0;
    for (int rep = 0; rep < 10; ++rep) {
      for (const std::uint64_t line : cycle) count += c.access(line) ? 0 : 1;
    }
    return count;
  };
  EXPECT_EQ(misses(tiny_cache(), {0, 4, 8}), 30);  // packed, 2-way set 0
  EXPECT_EQ(misses(CacheGeometry{512, 8, 64},      // packed wide, one set
                   {0, 1, 2, 3, 4, 5, 6, 7, 8}),
            90);
  EXPECT_EQ(misses(CacheGeometry{1088, 17, 64},    // generic, one set
                   {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                    17}),
            180);
}

// ---------- simulation over layouts ------------------------------------------

/// A module with one function that loops over `n_blocks` blocks of
/// `block_bytes` each.
Module loop_module(std::uint32_t n_blocks, std::uint32_t block_bytes) {
  ModuleBuilder mb("loop");
  auto f = mb.function("main");
  std::vector<BlockId> blocks;
  for (std::uint32_t i = 0; i < n_blocks; ++i) {
    blocks.push_back(f.block(block_bytes));
  }
  for (std::uint32_t i = 0; i + 1 < n_blocks; ++i) {
    f.jump(blocks[i], blocks[i + 1]);
  }
  const BlockId exit = f.block(16);
  f.loop(blocks.back(), blocks.front(), exit, 0.999);
  return std::move(mb).build();
}

TEST(IcacheSim, FittingLoopHasOnlyColdMisses) {
  const Module m = loop_module(8, 64);  // 512B + exit: fits in 32KB
  const ProfileResult r = profile(m, 1, {.max_events = 20'000});
  const SimResult sim = simulate_solo(m, original_layout(m), r.block_trace);
  EXPECT_LT(sim.miss_ratio(), 0.001);
  EXPECT_GT(sim.instructions, 0u);
  EXPECT_EQ(sim.blocks, r.block_trace.size());
}

TEST(IcacheSim, ThrashingLoopMissesEveryLine) {
  // 1024 blocks x 64B = 64KB loop in a 32KB cache: every line misses.
  const Module m = loop_module(1024, 64);
  const ProfileResult r = profile(m, 1, {.max_events = 50'000});
  const SimResult sim = simulate_solo(m, original_layout(m), r.block_trace);
  // 64B block = 16 instructions per line fetch -> miss ratio ~ 1/16.
  EXPECT_NEAR(sim.miss_ratio(), 1.0 / 16.0, 0.01);
}

TEST(IcacheSim, SmallCacheThrashesWhereBigDoesNot) {
  const Module m = loop_module(32, 64);  // 2KB loop
  const ProfileResult r = profile(m, 1, {.max_events = 20'000});
  SimOptions small;
  small.hierarchy.l1 = CacheGeometry{1024, 2, 64};
  const SimResult tight = simulate_solo(m, original_layout(m), r.block_trace,
                                        small);
  const SimResult roomy = simulate_solo(m, original_layout(m), r.block_trace);
  EXPECT_GT(tight.miss_ratio(), 0.05);
  EXPECT_LT(roomy.miss_ratio(), 0.001);
}

TEST(IcacheSim, PrefetchReducesSequentialMisses) {
  const Module m = loop_module(1024, 64);
  const ProfileResult r = profile(m, 1, {.max_events = 50'000});
  SimOptions with_pf;
  with_pf.next_line_prefetch = true;
  const SimResult base = simulate_solo(m, original_layout(m), r.block_trace);
  const SimResult pf = simulate_solo(m, original_layout(m), r.block_trace,
                                     with_pf);
  EXPECT_LT(pf.misses(), base.misses());
}

TEST(IcacheSim, WrongPathFetchAddsMisses) {
  // A branchy thrashing loop: wrong-path fetches hit cold lines.
  ModuleBuilder mb("branchy");
  auto f = mb.function("main");
  std::vector<BlockId> heads;
  for (int i = 0; i < 256; ++i) heads.push_back(f.block(128));
  for (std::size_t i = 0; i + 1 < heads.size(); ++i) {
    // Two-way branch: mostly falls through to the next head.
    f.branch(heads[i], heads[(i + 7) % heads.size()], heads[i + 1], 0.05);
  }
  const BlockId exit = f.block(16);
  f.loop(heads.back(), heads.front(), exit, 0.999);
  const Module m = std::move(mb).build();
  const ProfileResult r = profile(m, 1, {.max_events = 30'000});
  SimOptions wp;
  wp.wrong_path_rate = 0.5;
  const SimResult base = simulate_solo(m, original_layout(m), r.block_trace);
  const SimResult polluted = simulate_solo(m, original_layout(m),
                                           r.block_trace, wp);
  EXPECT_GT(polluted.wrong_path_misses, 0u);
  EXPECT_GT(polluted.misses(), base.misses());
}

TEST(IcacheSim, HardwareProxyCountsMoreThanSimulator) {
  const Module m = loop_module(700, 64);
  const ProfileResult r = profile(m, 1, {.max_events = 40'000});
  const SimResult sim = simulate_solo(m, original_layout(m), r.block_trace);
  const SimResult hw = simulate_solo(m, original_layout(m), r.block_trace,
                                     hardware_proxy_options());
  // Direction check only: the two instruments measure the same trend.
  EXPECT_GT(sim.misses(), 0u);
  EXPECT_GT(hw.misses(), 0u);
}

// ---------- co-run ------------------------------------------------------------

TEST(CorunSim, SharedCacheCausesInterference) {
  // Two identical 24KB loops: each fits solo in 32KB, together they thrash.
  const Module m1 = loop_module(384, 64);
  const Module m2 = loop_module(384, 64);
  const ProfileResult r1 = profile(m1, 1, {.max_events = 30'000});
  const ProfileResult r2 = profile(m2, 2, {.max_events = 30'000});
  const CodeLayout l1 = original_layout(m1);
  const CodeLayout l2 = original_layout(m2);
  const SimResult solo = simulate_solo(m1, l1, r1.block_trace);
  const CorunResult corun =
      simulate_corun(m1, l1, r1.block_trace, m2, l2, r2.block_trace);
  EXPECT_GT(corun.self.miss_ratio(), solo.miss_ratio() + 0.01);
  EXPECT_GT(corun.peer.miss_ratio(), 0.01);
}

TEST(CorunSim, TinyPeerBarelyInterferes) {
  const Module self = loop_module(64, 64);   // 4KB
  const Module peer = loop_module(4, 64);    // 256B
  const ProfileResult rs = profile(self, 1, {.max_events = 30'000});
  const ProfileResult rp = profile(peer, 2, {.max_events = 30'000});
  const CorunResult corun =
      simulate_corun(self, original_layout(self), rs.block_trace, peer,
                     original_layout(peer), rp.block_trace);
  EXPECT_LT(corun.self.miss_ratio(), 0.005);
}

TEST(CorunSim, SelfTraceReplayedExactlyOnce) {
  const Module self = loop_module(16, 64);
  const Module peer = loop_module(16, 64);
  const ProfileResult rs = profile(self, 1, {.max_events = 5'000});
  const ProfileResult rp = profile(peer, 2, {.max_events = 20'000});
  const CorunResult corun =
      simulate_corun(self, original_layout(self), rs.block_trace, peer,
                     original_layout(peer), rp.block_trace);
  EXPECT_EQ(corun.self.blocks, rs.block_trace.size());
}

TEST(CorunSim, PeerSpeedScalesPeerProgress) {
  const Module self = loop_module(16, 64);
  const Module peer = loop_module(16, 64);
  const ProfileResult rs = profile(self, 1, {.max_events = 10'000});
  const ProfileResult rp = profile(peer, 2, {.max_events = 10'000});
  const CodeLayout ls = original_layout(self);
  const CodeLayout lp = original_layout(peer);
  const CorunResult slow = simulate_corun(self, ls, rs.block_trace, peer, lp,
                                          rp.block_trace, {}, 0.5);
  const CorunResult fast = simulate_corun(self, ls, rs.block_trace, peer, lp,
                                          rp.block_trace, {}, 2.0);
  EXPECT_GT(fast.peer.blocks, slow.peer.blocks * 3);
}

TEST(CorunSim, NamespacesDoNotAlias) {
  // Identical programs at identical addresses: without namespacing the
  // shared cache would dedupe their lines and show zero interference even
  // when the combined footprint exceeds the cache. 20KB each: alone fits,
  // both together cannot both fit.
  const Module m = loop_module(320, 64);
  const ProfileResult r = profile(m, 1, {.max_events = 30'000});
  const CodeLayout l = original_layout(m);
  const SimResult solo = simulate_solo(m, l, r.block_trace);
  const CorunResult corun =
      simulate_corun(m, l, r.block_trace, m, l, r.block_trace);
  EXPECT_GT(corun.self.miss_ratio(), solo.miss_ratio());
}

// ---------- line traces --------------------------------------------------------

TEST(LineTrace, ExpandsBlocksToTheirLines) {
  ModuleBuilder mb("lines");
  auto f = mb.function("main");
  const BlockId big = f.block(160);   // lines 0,1,2
  const BlockId next = f.block(32);   // line 2 (shared)
  f.jump(big, next);
  const Module m = std::move(mb).build();
  Trace t(Trace::Granularity::kBlock);
  t.push(big);
  t.push(next);
  const Trace lines = line_trace(m, original_layout(m), t, 64);
  // big covers lines 0..2; next stays on line 2 (trimmed).
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines.symbols()[0], 0u);
  EXPECT_EQ(lines.symbols()[1], 1u);
  EXPECT_EQ(lines.symbols()[2], 2u);
}

}  // namespace
}  // namespace codelayout
