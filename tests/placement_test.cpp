#include <gtest/gtest.h>

#include "cache/icache_sim.hpp"
#include "exec/interpreter.hpp"
#include "ir/builder.hpp"
#include "trg/placement.hpp"

namespace codelayout {
namespace {

Module loop_module(std::uint32_t n_blocks) {
  ModuleBuilder mb("loop");
  auto f = mb.function("main");
  std::vector<BlockId> blocks;
  for (std::uint32_t i = 0; i < n_blocks; ++i) blocks.push_back(f.block(64));
  for (std::uint32_t i = 0; i + 1 < n_blocks; ++i) {
    f.jump(blocks[i], blocks[i + 1]);
  }
  const BlockId exit = f.block(16);
  f.loop(blocks.back(), blocks.front(), exit, 0.999);
  return std::move(mb).build();
}

TEST(FromAddresses, HonorsExplicitAddressesAndGaps) {
  ModuleBuilder mb("gaps");
  auto f = mb.function("main");
  const BlockId a = f.block(32);
  const BlockId b = f.block(32);
  f.jump(a, b, /*fallthrough=*/false);
  const Module m = std::move(mb).build();
  const CodeLayout layout = CodeLayout::from_addresses(
      m, {{a, 0}, {b, 4096}}, /*with_entry_stubs=*/false);
  EXPECT_EQ(layout.placement(a).address, 0u);
  EXPECT_EQ(layout.placement(b).address, 4096u);
  EXPECT_EQ(layout.total_bytes(), 4096u + 32u);
}

TEST(FromAddresses, ChargesFixupForNonAdjacentFallthrough) {
  ModuleBuilder mb("fix");
  auto f = mb.function("main");
  const BlockId a = f.block(32);
  const BlockId b = f.block(32);
  f.jump(a, b, /*fallthrough=*/true);
  const Module m = std::move(mb).build();
  const CodeLayout apart = CodeLayout::from_addresses(
      m, {{a, 0}, {b, 256}}, /*with_entry_stubs=*/false);
  EXPECT_EQ(apart.fixup_count(), 1u);
  const CodeLayout adjacent = CodeLayout::from_addresses(
      m, {{a, 0}, {b, 32}}, /*with_entry_stubs=*/false);
  EXPECT_EQ(adjacent.fixup_count(), 0u);
}

TEST(FromAddresses, RejectsOverlap) {
  ModuleBuilder mb("overlap");
  auto f = mb.function("main");
  const BlockId a = f.block(64);
  const BlockId b = f.block(64);
  f.jump(a, b, /*fallthrough=*/false);
  const Module m = std::move(mb).build();
  EXPECT_THROW(CodeLayout::from_addresses(m, {{a, 0}, {b, 16}}, false),
               ContractError);
}

TEST(FromAddresses, RejectsIncompleteCover) {
  const Module m = loop_module(4);
  EXPECT_THROW(
      CodeLayout::from_addresses(m, {{m.function(FuncId(0)).blocks[0], 0}},
                                 false),
      ContractError);
}

TEST(GloySmith, EveryBlockPlacedWithoutOverlap) {
  const Module m = loop_module(64);
  const ProfileResult r = profile(m, 1, {.max_events = 20'000});
  const Trg graph = Trg::build(r.block_trace.trimmed());
  const PlacementResult placed = gloy_smith_placement(m, graph);
  // from_addresses validates non-overlap; also check total coverage.
  EXPECT_EQ(placed.layout.block_order().size(), m.block_count());
}

TEST(GloySmith, AlignedBlocksStartAtChosenSets) {
  // With padding, hot blocks in a thrashing loop should spread across sets
  // rather than pile up; the layout is at least as large as the packed one.
  const Module m = loop_module(700);  // ~44KB of hot code
  const ProfileResult r = profile(m, 1, {.max_events = 40'000});
  const Trg graph = Trg::build(r.block_trace.trimmed());
  const PlacementResult placed = gloy_smith_placement(m, graph);
  const CodeLayout packed = original_layout(m);
  EXPECT_GE(placed.layout.total_bytes(),
            packed.total_bytes() + placed.padding_bytes / 2);
  EXPECT_GT(placed.padding_bytes, 0u);
}

TEST(GloySmith, SimulatableLayout) {
  const Module m = loop_module(64);
  const ProfileResult r = profile(m, 1, {.max_events = 10'000});
  const Trg graph = Trg::build(r.block_trace.trimmed());
  const PlacementResult placed = gloy_smith_placement(m, graph);
  const SimResult sim = simulate_solo(m, placed.layout, r.block_trace);
  EXPECT_EQ(sim.blocks, r.block_trace.size());
  // A 4KB hot loop fits the 32KB cache regardless of alignment.
  EXPECT_LT(sim.miss_ratio(), 0.01);
}

TEST(GloySmith, RejectsANodeThatIsNotABlock) {
  // Block 99 of a 5-block module: the placement indexes its tables by block
  // id, so it must refuse the graph, an isolated node included.
  const Module m = loop_module(4);
  const std::vector<Symbol> isolated = {0, 99};
  EXPECT_THROW(gloy_smith_placement(m, Trg::from_edges(isolated, {})),
               ContractError);
  const std::vector<Trg::Edge> edge = {{0, 99, 3}};
  EXPECT_THROW(gloy_smith_placement(m, Trg::from_edges({}, edge)),
               ContractError);
}

}  // namespace
}  // namespace codelayout
