#include <algorithm>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "affinity/analysis.hpp"
#include "affinity/hierarchy_builder.hpp"
#include "affinity/naive.hpp"
#include "helpers.hpp"
#include "support/rng.hpp"

namespace codelayout {
namespace {

using testing::fig1_trace;
using testing::make_trace;

std::set<std::uint64_t> pair_set(const std::vector<std::uint64_t>& v) {
  return {v.begin(), v.end()};
}

std::uint64_t key(Symbol a, Symbol b) { return detail::pair_key(a, b); }

// ---------- window footprint (Definition 2) ---------------------------------

TEST(WindowFootprint, PaperExample) {
  // Trace B1 B3 B2 B3 B4: fp<B1@0, B2@2> = |{B1,B3,B2}| = 3.
  const Trace t = make_trace({1, 3, 2, 3, 4});
  EXPECT_EQ(window_footprint(t, 0, 2), 3u);
  EXPECT_EQ(window_footprint(t, 0, 0), 1u);
  EXPECT_EQ(window_footprint(t, 1, 3), 2u);
  EXPECT_EQ(window_footprint(t, 0, 4), 4u);
}

// ---------- Definition 3 exact affinity --------------------------------------

TEST(NaiveAffinity, Fig1PairsAtW2) {
  const Trace t = fig1_trace();
  EXPECT_TRUE(naive_w_affine(t, 3, 5, 2));
  EXPECT_FALSE(naive_w_affine(t, 1, 4, 2));
  EXPECT_FALSE(naive_w_affine(t, 2, 3, 2));
}

TEST(NaiveAffinity, Fig1PairsAtW3) {
  const Trace t = fig1_trace();
  // The paper: at w=3 both (B3,B5) and (B2,B3) are affine pairs.
  EXPECT_TRUE(naive_w_affine(t, 3, 5, 3));
  EXPECT_TRUE(naive_w_affine(t, 2, 3, 3));
  EXPECT_TRUE(naive_w_affine(t, 1, 4, 3));
  // But B2,B5 are not (B2@2 has no B5 within footprint 3).
  EXPECT_FALSE(naive_w_affine(t, 2, 5, 3));
}

TEST(NaiveAffinity, Fig1PairsAtW4) {
  const Trace t = fig1_trace();
  EXPECT_TRUE(naive_w_affine(t, 2, 3, 4));
  EXPECT_TRUE(naive_w_affine(t, 2, 5, 4));
  EXPECT_TRUE(naive_w_affine(t, 3, 5, 4));
  EXPECT_TRUE(naive_w_affine(t, 1, 4, 4));
  // (B1,B2) is pairwise affine at w=4 under Definition 3, yet the paper's
  // partition keeps them apart: merging {B1,B4} with B2 would need (B4,B2),
  // whose B4@9 occurrence has no B2 within footprint 4.
  EXPECT_TRUE(naive_w_affine(t, 1, 2, 4));
  EXPECT_FALSE(naive_w_affine(t, 4, 2, 4));
}

TEST(NaiveAffinity, SelfAffinityAndMissingSymbols) {
  const Trace t = fig1_trace();
  EXPECT_TRUE(naive_w_affine(t, 3, 3, 2));
  EXPECT_FALSE(naive_w_affine(t, 3, 99, 100));
}

TEST(NaiveAffinity, MonotoneInW) {
  const Trace t = fig1_trace();
  for (Symbol a = 1; a <= 5; ++a) {
    for (Symbol b = a + 1; b <= 5; ++b) {
      bool prev = false;
      for (std::uint32_t w = 2; w <= 6; ++w) {
        const bool now = naive_w_affine(t, a, b, w);
        EXPECT_TRUE(!prev || now) << a << "," << b << " w=" << w;
        prev = now;
      }
    }
  }
}

// ---------- fast analysis ----------------------------------------------------

TEST(FastAffinity, MatchesNaiveOnFig1) {
  const Trace t = fig1_trace();
  for (std::uint32_t w : {2u, 3u, 4u, 5u}) {
    EXPECT_EQ(pair_set(affine_pairs_at(t, w)),
              pair_set(naive_affine_pairs_at(t, w)))
        << "w=" << w;
  }
}

TEST(FastAffinity, Fig1AtW2OnlyB3B5) {
  const auto pairs = affine_pairs_at(fig1_trace(), 2);
  EXPECT_EQ(pair_set(pairs), std::set<std::uint64_t>{key(3, 5)});
}

TEST(FastAffinity, RequiresTrimmedTrace) {
  const Trace t = make_trace({1, 1, 2});
  EXPECT_THROW(affine_pairs_at(t, 2), ContractError);
}

/// Exactness property: the one-w call of the pass computes exactly the
/// Definition-3 relation the quadratic reference computes.
class FastVsNaiveTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastVsNaiveTest, FastEqualsNaive) {
  Rng rng(GetParam());
  Trace raw(Trace::Granularity::kBlock);
  const auto len = 30 + rng.below(150);
  for (std::uint64_t i = 0; i < len; ++i) {
    raw.push_symbol(static_cast<Symbol>(rng.below(8)));
  }
  const Trace t = raw.trimmed();
  if (t.size() < 3) return;
  for (std::uint32_t w : {2u, 3u, 5u, 8u}) {
    EXPECT_EQ(pair_set(affine_pairs_at(t, w)),
              pair_set(naive_affine_pairs_at(t, w)))
        << "w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastVsNaiveTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(FastAffinity, MonotonePairSetsInW) {
  Rng rng(77);
  Trace raw(Trace::Granularity::kBlock);
  for (int i = 0; i < 400; ++i) {
    raw.push_symbol(static_cast<Symbol>(rng.below(12)));
  }
  const Trace t = raw.trimmed();
  std::set<std::uint64_t> prev;
  for (std::uint32_t w : {2u, 3u, 4u, 6u, 9u}) {
    const auto cur = pair_set(affine_pairs_at(t, w));
    for (std::uint64_t p : prev) EXPECT_TRUE(cur.contains(p)) << "w=" << w;
    prev = cur;
  }
}

// ---------- one pass for the whole grid --------------------------------------

void expect_same_hierarchy(const AffinityHierarchy& a,
                           const AffinityHierarchy& b) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  ASSERT_EQ(std::vector<std::uint32_t>(a.roots().begin(), a.roots().end()),
            std::vector<std::uint32_t>(b.roots().begin(), b.roots().end()));
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    const AffinityGroup& x = a.nodes()[i];
    const AffinityGroup& y = b.nodes()[i];
    EXPECT_EQ(x.id, y.id) << "node " << i;
    EXPECT_EQ(x.formed_at_w, y.formed_at_w) << "node " << i;
    EXPECT_EQ(x.members, y.members) << "node " << i;
    EXPECT_EQ(x.children, y.children) << "node " << i;
    EXPECT_EQ(x.first_occurrence, y.first_occurrence) << "node " << i;
    EXPECT_EQ(x.occurrences, y.occurrences) << "node " << i;
  }
}

/// The default grid, a wider one, a sparse one, a single slot, and one whose
/// top exceeds every test trace's distinct-symbol count.
const std::vector<std::uint32_t> kGrids[] = {
    {2, 3, 4, 6, 8, 12, 16, 20},
    {2, 3, 4, 6, 8, 12, 16, 20, 32, 48, 64},
    {2, 5, 9},
    {3},
    {2, 7, 1000},
};

/// A trimmed trace of 30-400 events over 8-16 symbols. Most events repeat a
/// symbol from two to four steps back, so short loops give pairs that are
/// affine at small w, and the rest are uniform noise that breaks them.
Trace loopy_trace(std::uint64_t seed) {
  Rng rng(seed);
  const auto symbols = 8 + rng.below(9);
  const auto events = 30 + rng.below(371);
  Trace t(Trace::Granularity::kBlock);
  while (t.size() < events) {
    auto s = static_cast<Symbol>(rng.below(symbols));
    if (t.size() >= 4 && rng.chance(0.6)) {
      s = t.symbols()[t.size() - 2 - rng.below(3)];
    }
    if (t.empty() || t.symbols().back() != s) t.push_symbol(s);
  }
  return t;
}

/// Exactness property of the one-pass analysis: every slot of the grid
/// holds exactly the Definition-3 pair set, and the hierarchy equals the
/// reference's node for node.
class OnePassVsNaiveTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(OnePassVsNaiveTest, EverySlotEqualsNaive) {
  const auto [seed, grid_index] = GetParam();
  const std::vector<std::uint32_t>& grid = kGrids[grid_index];
  const Trace t = loopy_trace(seed);
  const auto sets = affine_pair_sets(t, grid);
  ASSERT_EQ(sets.size(), grid.size());
  for (std::size_t j = 0; j < grid.size(); ++j) {
    EXPECT_EQ(sets[j], naive_affine_pairs_at(t, grid[j])) << "w=" << grid[j];
  }
  const AffinityConfig config{.w_values = grid};
  expect_same_hierarchy(analyze_affinity(t, config),
                        naive_hierarchy(t, config));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByGrid, OnePassVsNaiveTest,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 11),
                       ::testing::Range<std::size_t>(0, std::size(kGrids))));

TEST(OnePassAffinity, PairFirstAffineThroughAnEarlierWindow) {
  // x d x y: (x, y) becomes affine at w = 3 through x@0's window [0, 3],
  // which no stack depth at y@3 describes (x sits at depth 2 there).
  const Symbol x = 1;
  const Symbol d = 2;
  const Symbol y = 3;
  const Trace t = make_trace({x, d, x, y});
  const std::vector<std::uint32_t> grid = {2, 3};
  const auto sets = affine_pair_sets(t, grid);
  EXPECT_FALSE(pair_set(sets[0]).contains(key(x, y)));
  EXPECT_TRUE(pair_set(sets[1]).contains(key(x, y)));
  EXPECT_FALSE(naive_w_affine(t, x, y, 2));
  EXPECT_TRUE(naive_w_affine(t, x, y, 3));
}

TEST(OnePassAffinity, TopSlotNear2To32ActsAsTheDistinctCount) {
  // A w near 2^32 must neither wrap the stack bound nor size anything by w;
  // beyond the distinct-symbol count every window is the whole prefix.
  const Trace t = make_trace({1, 2, 3, 1, 4, 2, 5, 3, 1, 6, 4, 1, 2});
  const auto distinct = static_cast<std::uint32_t>(t.distinct_count());
  const std::vector<std::uint32_t> huge = {2, 4294967295u};
  const std::vector<std::uint32_t> exact = {2, distinct};
  const auto top = affine_pair_sets(t, huge);
  EXPECT_EQ(top, affine_pair_sets(t, exact));
  EXPECT_EQ(top[1], naive_affine_pairs_at(t, distinct));
  EXPECT_EQ(affine_pairs_at(t, 4294967295u), top[1]);
}

// ---------- hierarchy (Figure 1) ---------------------------------------------

TEST(Hierarchy, Fig1LayoutOrder) {
  const AffinityHierarchy h = analyze_affinity(
      fig1_trace(), AffinityConfig{.w_values = {2, 3, 4, 5}});
  EXPECT_EQ(h.layout_order(), (std::vector<Symbol>{1, 4, 2, 3, 5}));
}

TEST(Hierarchy, Fig1PartitionLevels) {
  const AffinityHierarchy h = analyze_affinity(
      fig1_trace(), AffinityConfig{.w_values = {2, 3, 4, 5}});

  auto members_at = [&](std::uint32_t w) {
    std::vector<std::vector<Symbol>> out;
    for (std::uint32_t id : h.partition_at(w)) {
      auto m = h.node(id).members;
      std::sort(m.begin(), m.end());
      out.push_back(m);
    }
    return out;
  };

  // w=1: singletons (B1)(B4)(B2)(B3)(B5) in first-appearance order.
  EXPECT_EQ(members_at(1).size(), 5u);
  // w=2: (B3,B5) grouped.
  const auto w2 = members_at(2);
  EXPECT_EQ(w2.size(), 4u);
  EXPECT_NE(std::find(w2.begin(), w2.end(), std::vector<Symbol>{3, 5}),
            w2.end());
  // w=3: (B1,B4) (B2) (B3,B5) — the lower-level group takes precedence.
  const auto w3 = members_at(3);
  EXPECT_EQ(w3.size(), 3u);
  EXPECT_NE(std::find(w3.begin(), w3.end(), std::vector<Symbol>{1, 4}),
            w3.end());
  EXPECT_NE(std::find(w3.begin(), w3.end(), std::vector<Symbol>{3, 5}),
            w3.end());
  // w=4: (B1,B4) (B2,B3,B5).
  const auto w4 = members_at(4);
  EXPECT_EQ(w4.size(), 2u);
  EXPECT_NE(std::find(w4.begin(), w4.end(), std::vector<Symbol>{2, 3, 5}),
            w4.end());
  // w=5: one group of all five.
  EXPECT_EQ(members_at(5).size(), 1u);
}

TEST(Hierarchy, NaiveHierarchyAgreesOnFig1) {
  const AffinityConfig config{.w_values = {2, 3, 4, 5}};
  const AffinityHierarchy fast = analyze_affinity(fig1_trace(), config);
  const AffinityHierarchy exact = naive_hierarchy(fig1_trace(), config);
  EXPECT_EQ(fast.layout_order(), exact.layout_order());
}

TEST(Hierarchy, LayoutOrderIsPermutationOfSymbols) {
  Rng rng(5);
  Trace raw(Trace::Granularity::kBlock);
  for (int i = 0; i < 3000; ++i) {
    raw.push_symbol(static_cast<Symbol>(rng.zipf(40, 0.8)));
  }
  const Trace t = raw.trimmed();
  const auto order = analyze_affinity(t).layout_order();
  std::set<Symbol> in_order(order.begin(), order.end());
  std::set<Symbol> in_trace(t.symbols().begin(), t.symbols().end());
  EXPECT_EQ(order.size(), in_order.size());  // no duplicates
  EXPECT_EQ(in_order, in_trace);             // exactly the trace symbols
}

TEST(Hierarchy, HotnessOrderPutsHotGroupsFirst) {
  // Symbol 9 is far hotter than the rest.
  Trace t(Trace::Granularity::kBlock);
  for (int i = 0; i < 50; ++i) {
    t.push_symbol(1);
    t.push_symbol(9);
  }
  t.push_symbol(2);
  t.push_symbol(3);
  const AffinityHierarchy h = analyze_affinity(t.trimmed());
  const auto order = h.layout_order(AffinityHierarchy::Order::kHotness);
  // The (1,9) pair dominates the trace and must lead the layout.
  EXPECT_TRUE((order[0] == 1 && order[1] == 9) ||
              (order[0] == 9 && order[1] == 1));
}

TEST(Hierarchy, ToStringRendersGroups) {
  const AffinityHierarchy h = analyze_affinity(
      fig1_trace(), AffinityConfig{.w_values = {2, 3, 4, 5}});
  const std::string s = h.to_string();
  EXPECT_NE(s.find("(w="), std::string::npos);
}

TEST(Hierarchy, InvalidConfigRejected) {
  AffinityConfig bad;
  bad.w_values = {4, 3};  // not ascending
  EXPECT_THROW(analyze_affinity(fig1_trace(), bad), ContractError);
  bad.w_values = {1};  // w < 2
  EXPECT_THROW(analyze_affinity(fig1_trace(), bad), ContractError);
  bad.w_values = {};
  EXPECT_THROW(analyze_affinity(fig1_trace(), bad), ContractError);
}

// ---------- Algorithm 1 ------------------------------------------------------

TEST(Algorithm1, PartitionAtW4IsGreedyAndPairwiseAffine) {
  // Algorithm 1 re-partitions from scratch at each w with a greedy pick; in
  // first-appearance order B3 joins {B1,B4} (it is pairwise affine with
  // both), and B5 then joins {B2}. The paper's Figure 1(b) partition
  // ((B1,B4)(B2,B3,B5)) is the *hierarchical* construction where the w=2
  // group (B3,B5) takes precedence — pinned by the Hierarchy tests.
  const auto groups = algorithm1_partition(fig1_trace(), 4);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<Symbol>{1, 4, 3}));
  EXPECT_EQ(groups[1], (std::vector<Symbol>{2, 5}));
  // Validity: every group is pairwise w-affine (Definition 4).
  for (const auto& group : groups) {
    for (Symbol a : group) {
      for (Symbol b : group) {
        EXPECT_TRUE(naive_w_affine(fig1_trace(), a, b, 4));
      }
    }
  }
}

TEST(Algorithm1, SingletonsAtW1Equivalent) {
  // At w=2 on a trace with no affine pairs every block is alone.
  const Trace t = make_trace({1, 2, 3, 1, 3, 2, 1, 2, 3, 2, 1, 3});
  const auto groups = algorithm1_partition(t, 2);
  for (const auto& g : groups) EXPECT_EQ(g.size(), 1u);
}

TEST(Algorithm1, AllTogetherAtHugeW) {
  const auto groups = algorithm1_partition(fig1_trace(), 100);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 5u);
}

}  // namespace
}  // namespace codelayout
