#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

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
  }
}

/// Expects every slot of `grid` to hold exactly the Definition-3 pair set.
void expect_every_slot_naive(const Trace& t,
                             const std::vector<std::uint32_t>& grid) {
  const auto sets = affine_pair_sets(t, grid);
  ASSERT_EQ(sets.size(), grid.size());
  for (std::size_t j = 0; j < grid.size(); ++j) {
    EXPECT_EQ(sets[j], naive_affine_pairs_at(t, grid[j])) << "w=" << grid[j];
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
  expect_every_slot_naive(t, grid);
  const AffinityConfig config{.w_values = grid};
  expect_same_hierarchy(analyze_affinity(t, config),
                        naive_hierarchy(t, config));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByGrid, OnePassVsNaiveTest,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 11),
                       ::testing::Range<std::size_t>(0, std::size(kGrids))));

// ---------- traces wider than the grid's top w -------------------------------

/// A trimmed trace of 150-400 events over 24-48 symbols, more than `width`.
/// The symbols are cut at random into loops of `width` - 2 to `width` + 2;
/// the trace runs each loop once, then loops drawn at random two to four
/// times each, with 5% noise. So pairs within a loop turn affine near w =
/// its length, the first and last of a loop at exactly that depth, while
/// pairs across loops rarely do.
Trace wide_trace(std::uint64_t seed, std::uint32_t width) {
  Rng rng(seed);
  const auto universe = static_cast<std::uint32_t>(24 + rng.below(25));
  const auto events = 150 + rng.below(251);
  const std::vector<std::uint32_t> symbols = rng.permutation(universe);
  std::vector<std::vector<Symbol>> loops;
  for (std::size_t i = 0; i < universe;) {
    const auto length = std::min<std::size_t>(width - 2 + rng.below(5),
                                              universe - i);
    loops.emplace_back(symbols.begin() + i, symbols.begin() + i + length);
    i += length;
  }
  Trace t(Trace::Granularity::kBlock);
  const auto run = [&](const std::vector<Symbol>& loop) {
    for (Symbol s : loop) {
      if (rng.chance(0.05)) s = static_cast<Symbol>(rng.below(universe));
      if (t.empty() || t.symbols().back() != s) t.push_symbol(s);
    }
  };
  for (const auto& loop : loops) run(loop);
  while (t.size() < events) {
    const auto& loop = loops[rng.below(loops.size())];
    for (auto round = 2 + rng.below(3); round > 0; --round) run(loop);
  }
  return t;
}

/// The default grid, whose top w = 20 the traces exceed by 4 to 28 symbols,
/// and {2, 3, 4}, which they exceed by 20 to 44.
const std::vector<std::uint32_t> kNarrowGrids[] = {
    AffinityConfig{}.w_values,
    {2, 3, 4},
};

class WideTraceTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
 protected:
  const std::vector<std::uint32_t>& grid() const {
    return kNarrowGrids[std::get<1>(GetParam())];
  }
  Trace trace() const {
    return wide_trace(std::get<0>(GetParam()), grid().back());
  }
};

/// The pass keeps rows only for pairs that can be affine; every slot must
/// still hold exactly the Definition-3 pair set.
TEST_P(WideTraceTest, EverySlotEqualsNaive) {
  const Trace t = trace();
  ASSERT_GT(t.distinct_count(), grid().back());
  expect_every_slot_naive(t, grid());
}

/// The lemma the pass prunes by: of a w-affine pair, the symbol that occurs
/// first is within stack depth w of the other at the other's first
/// occurrence, i.e. the window from its last occurrence before that point
/// to that point has footprint <= w.
TEST_P(WideTraceTest, AffinePairsWereWithinDepthWAtTheLaterFirstOccurrence) {
  const Trace t = trace();
  const auto symbols = t.symbols();
  const auto first = [&](Symbol s) {
    return static_cast<std::size_t>(
        std::find(symbols.begin(), symbols.end(), s) - symbols.begin());
  };
  std::size_t checked = 0;
  for (const std::uint32_t w : grid()) {
    for (const std::uint64_t pair : naive_affine_pairs_at(t, w)) {
      auto earlier = static_cast<Symbol>(pair >> 32);
      auto later = static_cast<Symbol>(pair & 0xffffffffu);
      if (first(later) < first(earlier)) std::swap(earlier, later);
      const std::size_t at = first(later);
      const auto before =
          std::find(std::make_reverse_iterator(symbols.begin() + at),
                    symbols.rend(), earlier);
      const auto last_before =
          static_cast<std::size_t>(symbols.rend() - before) - 1;
      EXPECT_LE(window_footprint(t, last_before, at), w)
          << "pair (" << earlier << ", " << later << ") w=" << w;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByGrid, WideTraceTest,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 7),
                       ::testing::Range<std::size_t>(0,
                                                     std::size(kNarrowGrids))));

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

TEST(OnePassAffinity, PairDeadBelowAMiddleSlotStaysAffineAboveIt) {
  // x and y alternate, except once: in x a b y c d x, that y is 4 away from
  // x on both sides. So (x, y) dies at w = 2 and 3 on the pass's next
  // meeting of the two, and both keep recurring, affine at w = 4 and 6.
  const Symbol x = 1;
  const Symbol y = 2;
  std::vector<Symbol> events;
  for (int i = 0; i < 20; ++i) events.insert(events.end(), {x, y});
  events.insert(events.end(), {x, 3, 4, y, 5, 6});
  for (int i = 0; i < 200; ++i) events.insert(events.end(), {x, y});
  const Trace t = make_trace(events);
  const std::vector<std::uint32_t> grid = {2, 3, 4, 6};
  const auto sets = affine_pair_sets(t, grid);
  EXPECT_FALSE(pair_set(sets[0]).contains(key(x, y)));
  EXPECT_FALSE(pair_set(sets[1]).contains(key(x, y)));
  EXPECT_TRUE(pair_set(sets[2]).contains(key(x, y)));
  EXPECT_TRUE(pair_set(sets[3]).contains(key(x, y)));
  expect_every_slot_naive(t, grid);
}

TEST(OnePassAffinity, SymbolWhoseRowsAllDieKeepsRecurring) {
  // z's rows, with a and b, are made in the first phase. In the second, a
  // and b each occur with z more than w_max = 3 away, so their next
  // meeting with z kills both rows at every slot; z then recurs for
  // thousands of events with a and b and no live row.
  const Symbol z = 1;
  const Symbol a = 2;
  const Symbol b = 3;
  std::vector<Symbol> events = {z, a, z, a, b, z, b, a, b, a,
                                4, 5, 6, a, 4, 5, 6, b, 4, 5, 6};
  for (int i = 0; i < 1000; ++i) events.insert(events.end(), {z, a, z, b});
  const Trace t = make_trace(events);
  const std::vector<std::uint32_t> grid = {2, 3};
  const auto sets = affine_pair_sets(t, grid);
  for (const auto& pairs : sets) {
    for (const std::uint64_t pair : pairs) {
      EXPECT_NE(pair >> 32, z) << "w-affine with z: " << (pair & 0xffffffffu);
    }
  }
  expect_every_slot_naive(t, grid);
}

TEST(OnePassAffinity, GridOfMoreThan255Slots) {
  // w = 2..300 is 299 slots, so slot indices and the grid length run past
  // 8 bits. Over 24 symbols every pair is affine from w = 24 up, where
  // every window is the whole prefix; below that, short loops make pairs
  // die at many different slots.
  Rng rng(24);
  Trace t(Trace::Granularity::kBlock);
  while (t.size() < 400) {
    auto s = static_cast<Symbol>(rng.below(24));
    if (t.size() >= 8 && rng.chance(0.7)) {
      s = t.symbols()[t.size() - 2 - rng.below(6)];
    }
    if (t.empty() || t.symbols().back() != s) t.push_symbol(s);
  }
  const auto distinct = static_cast<std::uint32_t>(t.distinct_count());
  ASSERT_EQ(distinct, 24u);
  std::vector<std::uint32_t> grid;
  for (std::uint32_t w = 2; w <= 300; ++w) grid.push_back(w);
  const auto sets = affine_pair_sets(t, grid);
  ASSERT_EQ(sets.size(), grid.size());
  std::vector<std::vector<std::uint64_t>> naive;
  for (std::uint32_t w = 2; w <= distinct; ++w) {
    naive.push_back(naive_affine_pairs_at(t, w));
  }
  for (std::size_t j = 0; j < grid.size(); ++j) {
    EXPECT_EQ(sets[j], naive[std::min(grid[j], distinct) - 2])
        << "w=" << grid[j];
  }
  EXPECT_NE(naive.front(), naive.back());
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

TEST(OnePassAffinity, TopSlotNear2To32OverHundredsOfSymbols) {
  // Each symbol keeps a row per earlier symbol here, so the pass's storage
  // must follow the partners a trace has, not the w it is asked for.
  Rng rng(2014);
  Trace raw(Trace::Granularity::kBlock);
  for (int i = 0; i < 3000; ++i) {
    raw.push_symbol(static_cast<Symbol>(rng.zipf(300, 0.6)));
  }
  const Trace t = raw.trimmed();
  const auto distinct = static_cast<std::uint32_t>(t.distinct_count());
  ASSERT_GT(distinct, 200u);
  const std::vector<std::uint32_t> huge = {2, 4294967295u};
  const std::vector<std::uint32_t> exact = {2, distinct};
  EXPECT_EQ(affine_pair_sets(t, huge), affine_pair_sets(t, exact));
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

// ---------- hierarchy builder against the reference --------------------------

// The reference for detail::build_hierarchy: the same greedy agglomeration
// over hash tables keyed by symbol, testing complete linkage pair by pair.
// `partial` counts the candidate buckets that held an affine partner of the
// group but failed the test.
AffinityHierarchy reference_build_hierarchy(
    const Trace& trimmed, std::span<const std::uint32_t> w_values,
    std::span<const std::vector<std::uint64_t>> affine_sets,
    std::uint64_t& partial) {
  const auto complete_linkage =
      [](const AffinityGroup& a, const AffinityGroup& b,
         const std::unordered_set<std::uint64_t>& affine) {
        for (Symbol x : a.members) {
          for (Symbol y : b.members) {
            if (!affine.contains(detail::pair_key(x, y))) return false;
          }
        }
        return true;
      };

  std::unordered_map<Symbol, std::uint64_t> first_seen;
  const std::span<const Symbol> symbols = trimmed.symbols();
  for (std::uint64_t pos = 0; pos < symbols.size(); ++pos) {
    first_seen.try_emplace(symbols[pos], pos);
  }
  std::vector<AffinityGroup> nodes;
  std::vector<std::uint32_t> live;
  {
    std::vector<Symbol> order;
    for (const auto& [s, t] : first_seen) order.push_back(s);
    std::sort(order.begin(), order.end(), [&](Symbol a, Symbol b) {
      return first_seen.at(a) < first_seen.at(b);
    });
    for (Symbol s : order) {
      const auto id = static_cast<std::uint32_t>(nodes.size());
      nodes.push_back(AffinityGroup{.id = id,
                                    .formed_at_w = 1,
                                    .members = {s},
                                    .children = {},
                                    .first_occurrence = first_seen.at(s)});
      live.push_back(id);
    }
  }

  for (std::size_t level = 0; level < w_values.size(); ++level) {
    const std::vector<std::uint64_t>& pair_list = affine_sets[level];
    if (pair_list.empty()) continue;
    const std::unordered_set<std::uint64_t> affine(pair_list.begin(),
                                                   pair_list.end());
    std::unordered_map<Symbol, std::vector<Symbol>> partners;
    for (const std::uint64_t key : pair_list) {
      const auto lo = static_cast<Symbol>(key >> 32);
      const auto hi = static_cast<Symbol>(key & 0xffffffffu);
      partners[lo].push_back(hi);
      partners[hi].push_back(lo);
    }

    std::vector<std::vector<std::uint32_t>> buckets;
    std::unordered_map<Symbol, std::size_t> bucket_of_symbol;
    for (std::uint32_t gid : live) {
      const AffinityGroup& g = nodes[gid];
      std::set<std::size_t> candidates;
      for (Symbol s : g.members) {
        const auto pit = partners.find(s);
        if (pit == partners.end()) continue;
        for (Symbol other : pit->second) {
          const auto it = bucket_of_symbol.find(other);
          if (it != bucket_of_symbol.end()) candidates.insert(it->second);
        }
      }
      bool placed = false;
      for (std::size_t b : candidates) {
        bool ok = true;
        for (std::uint32_t member_gid : buckets[b]) {
          if (!complete_linkage(g, nodes[member_gid], affine)) {
            ok = false;
            break;
          }
        }
        if (ok) {
          buckets[b].push_back(gid);
          for (Symbol s : g.members) bucket_of_symbol[s] = b;
          placed = true;
          break;
        }
        ++partial;
      }
      if (!placed) {
        buckets.push_back({gid});
        for (Symbol s : g.members) bucket_of_symbol[s] = buckets.size() - 1;
      }
    }

    std::vector<std::uint32_t> next_live;
    for (const auto& bucket : buckets) {
      if (bucket.size() == 1) {
        next_live.push_back(bucket.front());
        continue;
      }
      AffinityGroup merged;
      merged.id = static_cast<std::uint32_t>(nodes.size());
      merged.formed_at_w = w_values[level];
      merged.children = bucket;
      merged.first_occurrence = ~std::uint64_t{0};
      for (std::uint32_t child : bucket) {
        const AffinityGroup& c = nodes[child];
        merged.members.insert(merged.members.end(), c.members.begin(),
                              c.members.end());
        merged.first_occurrence =
            std::min(merged.first_occurrence, c.first_occurrence);
      }
      next_live.push_back(merged.id);
      nodes.push_back(std::move(merged));
    }
    std::sort(next_live.begin(), next_live.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return nodes[a].first_occurrence < nodes[b].first_occurrence;
              });
    live = std::move(next_live);
  }
  return AffinityHierarchy(std::move(nodes), std::move(live));
}

/// A random monotone pair relation over 1-30 sparse symbols and 1-6 levels,
/// on a trimmed trace that names every symbol. The symbols fall into a few
/// clusters: a pair within a cluster turns affine at a random level with high
/// probability, a pair across clusters rarely, so groups grow, and many are
/// affine to only part of a bucket.
struct RandomPairSets {
  Trace trace{Trace::Granularity::kBlock};
  std::vector<std::uint32_t> w_values;
  std::vector<std::vector<std::uint64_t>> affine_sets;
};

RandomPairSets random_pair_sets(Rng& rng) {
  RandomPairSets out;
  const auto n = 1 + rng.below(30);
  std::vector<Symbol> symbols;
  while (symbols.size() < n) {
    const auto s = static_cast<Symbol>(rng.below(200));
    if (std::find(symbols.begin(), symbols.end(), s) == symbols.end()) {
      symbols.push_back(s);
    }
  }
  Trace raw(Trace::Granularity::kBlock);
  for (const Symbol s : symbols) raw.push_symbol(s);
  for (std::uint64_t i = 0, extra = rng.below(3 * n); i < extra; ++i) {
    raw.push_symbol(symbols[rng.below(n)]);
  }
  out.trace = raw.trimmed();

  const auto levels = 1 + rng.below(6);
  for (std::uint32_t w = 2; out.w_values.size() < levels;) {
    out.w_values.push_back(w);
    w += 1 + static_cast<std::uint32_t>(rng.below(3));
  }
  out.affine_sets.resize(levels);
  const auto clusters = 1 + rng.below(4);
  std::vector<std::uint64_t> cluster(n);
  for (auto& c : cluster) c = rng.below(clusters);
  std::vector<std::size_t> by_symbol(n);
  std::iota(by_symbol.begin(), by_symbol.end(), 0);
  std::sort(by_symbol.begin(), by_symbol.end(),
            [&](std::size_t x, std::size_t y) {
              return symbols[x] < symbols[y];
            });
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t x = by_symbol[i];
      const std::size_t y = by_symbol[j];
      const double p = cluster[x] == cluster[y] ? 0.85 : 0.15;
      if (!rng.chance(p)) continue;
      for (auto level = rng.below(levels); level < levels; ++level) {
        out.affine_sets[level].push_back(
            detail::pair_key(symbols[x], symbols[y]));
      }
    }
  }
  return out;
}

TEST(HierarchyBuilder, MatchesTheReferenceOnRandomPairSets) {
  Rng rng(26);
  std::uint64_t partial = 0;
  std::uint64_t merges = 0;
  for (int i = 0; i < 2'000; ++i) {
    SCOPED_TRACE(::testing::Message() << "pair sets " << i);
    const RandomPairSets sets = random_pair_sets(rng);
    const AffinityHierarchy built = detail::build_hierarchy(
        sets.trace, sets.w_values, sets.affine_sets);
    const AffinityHierarchy reference = reference_build_hierarchy(
        sets.trace, sets.w_values, sets.affine_sets, partial);
    expect_same_hierarchy(built, reference);
    if (::testing::Test::HasFailure()) return;
    merges += built.nodes().size() - built.symbol_count();
  }
  // The corpus exercises both outcomes of the linkage test.
  EXPECT_GT(partial, 1'000u);
  EXPECT_GT(merges, 1'000u);
}

TEST(HierarchyBuilder, RejectsPairListsThatAreNotStrictlyAscending) {
  const Trace t = make_trace({1, 2, 3});
  const std::vector<std::uint32_t> w = {2};
  const std::vector<std::vector<std::uint64_t>> repeated = {
      {key(1, 2), key(1, 2)}};
  EXPECT_THROW(detail::build_hierarchy(t, w, repeated), ContractError);
  const std::vector<std::vector<std::uint64_t>> descending = {
      {key(2, 3), key(1, 2)}};
  EXPECT_THROW(detail::build_hierarchy(t, w, descending), ContractError);
  const std::vector<std::vector<std::uint64_t>> absent = {{key(1, 9)}};
  EXPECT_THROW(detail::build_hierarchy(t, w, absent), ContractError);
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
