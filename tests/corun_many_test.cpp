#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/icache_sim.hpp"
#include "exec/interpreter.hpp"
#include "ir/builder.hpp"

namespace codelayout {
namespace {

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

struct Prepared {
  Module module;
  CodeLayout layout;
  FetchPlan plan;  ///< for the default 64-byte lines
  Trace trace;

  explicit Prepared(std::uint32_t blocks, std::uint64_t seed,
                    std::uint64_t events = 20'000)
      : module(loop_module(blocks, 64)),
        layout(original_layout(module)),
        plan(module, layout, kL1I.line_bytes),
        trace(profile(module, seed, {.max_events = events}).block_trace) {}

  [[nodiscard]] CorunSpec::Party party(double speed = 1.0) const {
    return CorunSpec::Party{&plan, &trace, speed};
  }
};

/// A co-run of `parties` under the default (simulated, flat L1) options.
std::vector<SimResult> corun(std::vector<CorunSpec::Party> parties) {
  return simulate_corun(CorunSpec{std::move(parties), SimOptions{}});
}

TEST(CorunMany, RequiresAtLeastTwoParties) {
  const Prepared a(16, 1);
  EXPECT_THROW(corun({a.party()}), ContractError);
}

TEST(CorunMany, TwoWayMatchesPairwiseSimulation) {
  const Prepared a(160, 1);
  const Prepared b(160, 2);
  const CorunResult pair = simulate_corun(a.module, a.layout, a.trace,
                                          b.module, b.layout, b.trace);
  const auto many = corun({a.party(), b.party()});
  ASSERT_EQ(many.size(), 2u);
  EXPECT_EQ(many[0].demand_misses, pair.self.demand_misses);
  EXPECT_EQ(many[0].instructions, pair.self.instructions);
  EXPECT_EQ(many[1].demand_misses, pair.peer.demand_misses);
}

TEST(CorunMany, MeasuredStreamRunsExactlyItsTrace) {
  const Prepared a(16, 1, 5'000);
  const Prepared b(16, 2, 50'000);
  const Prepared c(16, 3, 50'000);
  const auto results = corun({a.party(), b.party(), c.party()});
  EXPECT_EQ(results[0].blocks, a.trace.size());
}

TEST(CorunMany, MorePeersMoreInterference) {
  // Each loop is 10KB; 1 peer fits alongside in 32KB, 3 peers cannot.
  const Prepared a(160, 1);
  const Prepared b(160, 2);
  const Prepared c(160, 3);
  const Prepared d(160, 4);
  const double with_one_peer = corun({a.party(), b.party()})[0].miss_ratio();
  const double with_three_peers =
      corun({a.party(), b.party(), c.party(), d.party()})[0].miss_ratio();
  EXPECT_GT(with_three_peers, with_one_peer);
}

TEST(CorunMany, DistinctNamespacesPerParty) {
  // Identical programs: if namespaces collided, the shared cache would
  // dedupe lines and four 20KB programs would look like one.
  const Prepared a(320, 1);
  const auto results = corun({a.party(), a.party(), a.party(), a.party()});
  // 4 x 20KB in 32KB: everyone misses substantially.
  EXPECT_GT(results[0].miss_ratio(), 0.01);
}

TEST(CorunMany, SpeedScalesPeerProgress) {
  const Prepared a(16, 1, 10'000);
  const Prepared b(16, 2, 10'000);
  const auto r_slow = corun({a.party(), b.party(0.5)});
  const auto r_fast = corun({a.party(), b.party(2.0)});
  EXPECT_GT(r_fast[1].blocks, r_slow[1].blocks * 3);
}

TEST(CorunMany, RejectsBadParty) {
  const Prepared a(16, 1);
  std::vector<CorunSpec::Party> parties = {a.party(), a.party()};
  parties[1].speed = 0.0;
  EXPECT_THROW(corun(parties), ContractError);
  parties[1].speed = 1.0;
  parties[1].trace = nullptr;
  EXPECT_THROW(corun(parties), ContractError);
  parties[1].trace = &a.trace;
  parties[1].plan = nullptr;
  EXPECT_THROW(corun(parties), ContractError);
}

// ---- CorunSpec contract -----------------------------------------------------

TEST(CorunSpec, ValidatesMeasuredPartySpeed) {
  const Prepared a(16, 1);
  EXPECT_THROW(corun({a.party(2.0), a.party()}), ContractError);
  EXPECT_THROW(corun({a.party(0.5), a.party()}), ContractError);
}

}  // namespace
}  // namespace codelayout
