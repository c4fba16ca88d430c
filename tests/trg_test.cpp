#include <algorithm>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "support/rng.hpp"
#include "trg/graph.hpp"
#include "trg/reduction.hpp"

namespace codelayout {
namespace {

using testing::make_trace;

// ---------- construction (Definition 6) --------------------------------------

TEST(TrgBuild, InterleavedReuseCountsConflict) {
  // A B A: B occurs between two successive occurrences of A -> edge(A,B)=1.
  const Trg g = Trg::build(make_trace({1, 2, 1}));
  EXPECT_EQ(g.edge_weight(1, 2), 1u);
  EXPECT_EQ(g.edge_weight(2, 1), 1u);  // undirected
}

TEST(TrgBuild, NoReuseNoEdge) {
  // A B: no successive occurrence of either -> no conflicts.
  const Trg g = Trg::build(make_trace({1, 2}));
  EXPECT_EQ(g.edge_weight(1, 2), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.node_count(), 2u);
}

TEST(TrgBuild, RepeatedInterleavingAccumulates) {
  // A B A B A: edge grows with each interleaved reuse.
  const Trg g = Trg::build(make_trace({1, 2, 1, 2, 1}));
  // A reused at positions 2 (B above) and 4 (B above): 2 credits from A.
  // B reused at position 3 (A above): 1 credit. Total edge weight 3.
  EXPECT_EQ(g.edge_weight(1, 2), 3u);
}

TEST(TrgBuild, MultipleIntermediatesEachGetAnEdge) {
  // A B C A: both B and C interleave A's reuse.
  const Trg g = Trg::build(make_trace({1, 2, 3, 1}));
  EXPECT_EQ(g.edge_weight(1, 2), 1u);
  EXPECT_EQ(g.edge_weight(1, 3), 1u);
  EXPECT_EQ(g.edge_weight(2, 3), 0u);
}

TEST(TrgBuild, WindowCapsCoOccurrence) {
  // With a 2-entry window, A is evicted before its reuse: no edge.
  const Trace t = make_trace({1, 2, 3, 1});
  const Trg capped = Trg::build(t, TrgConfig{.window_entries = 2});
  EXPECT_EQ(capped.edge_weight(1, 2), 0u);
  EXPECT_EQ(capped.edge_weight(1, 3), 0u);
  const Trg wide = Trg::build(t, TrgConfig{.window_entries = 16});
  EXPECT_GT(wide.edge_weight(1, 3), 0u);
}

TEST(TrgBuild, TrimsInternally) {
  const Trg a = Trg::build(make_trace({1, 1, 2, 2, 1}));
  const Trg b = Trg::build(make_trace({1, 2, 1}));
  EXPECT_EQ(a.edge_weight(1, 2), b.edge_weight(1, 2));
}

TEST(TrgBuild, NodesInFirstAppearanceOrder) {
  const Trg g = Trg::build(make_trace({5, 3, 9, 3, 5}));
  const auto nodes = g.nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0], 5u);
  EXPECT_EQ(nodes[1], 3u);
  EXPECT_EQ(nodes[2], 9u);
}

TEST(TrgBuild, EdgesByWeightSortedDeterministically) {
  Trg g;
  g.add_edge(1, 2, 10);
  g.add_edge(3, 4, 10);
  g.add_edge(1, 3, 50);
  const auto edges = g.edges_by_weight();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].weight, 50u);
  EXPECT_EQ(edges[1].a, 1u);  // ties break by (a, b)
  EXPECT_EQ(edges[2].a, 3u);
}

TEST(TrgBuild, NeighborsThrowsForUnknown) {
  const Trg g = Trg::build(make_trace({1, 2, 1}));
  EXPECT_THROW((void)g.neighbors(42), ContractError);
}

// ---------- Definition-6 oracle ---------------------------------------------

/// Zipf-skewed random trace with bursts (runs), the shape the real
/// workloads produce: hot symbols recur, and repeated symbols form runs.
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

/// Definition 6 counted event by event, with no LRU stack: an event of `a`
/// whose previous occurrence is at p conflicts once with each distinct
/// symbol strictly between p and the event, provided fewer than `window` of
/// them occurred (otherwise `a` left the 2C window before its reuse).
struct NaiveTrg {
  std::vector<Symbol> nodes;  ///< first-appearance order
  std::unordered_map<std::uint64_t, Trg::Weight> edges;  ///< (lo << 32) | hi
};

NaiveTrg naive_trg(const Trace& trace, std::uint32_t window) {
  constexpr std::size_t kNever = ~std::size_t{0};
  const std::span<const Symbol> symbols = trace.symbols();
  NaiveTrg out;
  std::vector<std::size_t> last(trace.symbol_space(), kNever);
  std::vector<std::size_t> stamp(trace.symbol_space(), kNever);
  std::vector<Symbol> between;
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const Symbol a = symbols[i];
    if (last[a] == kNever) {
      out.nodes.push_back(a);
    } else {
      between.clear();
      for (std::size_t j = last[a] + 1; j < i && between.size() < window;
           ++j) {
        if (stamp[symbols[j]] != i) {
          stamp[symbols[j]] = i;
          between.push_back(symbols[j]);
        }
      }
      if (between.size() < window) {
        for (const Symbol b : between) {
          const std::uint64_t lo = std::min(a, b);
          const std::uint64_t hi = std::max(a, b);
          ++out.edges[(lo << 32) | hi];
        }
      }
    }
    last[a] = i;
  }
  return out;
}

void expect_matches_oracle(const Trace& trace, std::uint32_t window) {
  SCOPED_TRACE(::testing::Message() << "window " << window);
  const Trg g = Trg::build(trace, TrgConfig{.window_entries = window});
  const NaiveTrg oracle = naive_trg(trace, window);
  ASSERT_EQ(std::vector<Symbol>(g.nodes().begin(), g.nodes().end()),
            oracle.nodes);
  ASSERT_EQ(g.edge_count(), oracle.edges.size());
  std::vector<std::vector<Trg::Neighbor>> adjacency(trace.symbol_space());
  for (const Trg::Edge& e : g.edges_by_weight()) {
    ASSERT_LT(e.a, e.b);
    const auto it =
        oracle.edges.find((static_cast<std::uint64_t>(e.a) << 32) | e.b);
    ASSERT_NE(it, oracle.edges.end()) << e.a << "-" << e.b;
    ASSERT_EQ(e.weight, it->second) << e.a << "-" << e.b;
    adjacency[e.a].push_back({e.b, e.weight});
    adjacency[e.b].push_back({e.a, e.weight});
  }
  // Every CSR slice holds the node's edges, sorted by neighbor symbol.
  for (const Symbol s : oracle.nodes) {
    std::sort(adjacency[s].begin(), adjacency[s].end(),
              [](const Trg::Neighbor& x, const Trg::Neighbor& y) {
                return x.to < y.to;
              });
    const std::span<const Trg::Neighbor> slice = g.neighbors(s);
    ASSERT_EQ(slice.size(), adjacency[s].size()) << "node " << s;
    for (std::size_t i = 0; i < slice.size(); ++i) {
      ASSERT_EQ(slice[i].to, adjacency[s][i].to) << "node " << s;
      ASSERT_EQ(slice[i].weight, adjacency[s][i].weight) << "node " << s;
    }
  }
}

class TrgOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrgOracleTest, BuildMatchesDefinition6) {
  const Trace trace = random_trace(GetParam(), 3'000, 150);
  for (const std::uint32_t window : {1u, 2u, 8u, 64u, 1024u}) {
    expect_matches_oracle(trace, window);
  }
}

TEST_P(TrgOracleTest, LongRunsMatchDefinition6) {
  // Repeat events must stay stack no-ops that credit nothing.
  const Trace trace = random_trace(GetParam(), 2'000, 40, /*burstiness=*/0.9);
  for (const std::uint32_t window : {1u, 2u, 8u, 64u}) {
    expect_matches_oracle(trace, window);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrgOracleTest,
                         ::testing::Values(1, 7, 23, 41));

TEST(TrgOracle, ManyNodesTakeSeveralRowBlocks) {
  // Well over 1024 nodes: the count budget splits the rows into several
  // blocks, one trace pass each. Every symbol appears once, in shuffled
  // first-appearance order; then each run of 16 consecutive nodes loops
  // twice, so every row (the first and last of each block included) walks,
  // before a skewed tail of reuses.
  constexpr Symbol kSpace = 2'000;
  constexpr Symbol kLoop = 16;
  Rng rng(5);
  std::vector<Symbol> order(kSpace);
  for (Symbol s = 0; s < kSpace; ++s) order[s] = s;
  rng.shuffle(order);
  Trace trace = make_trace(order);
  for (Symbol first = 0; first < kSpace; first += kLoop) {
    for (int pass = 0; pass < 2; ++pass) {
      for (Symbol i = first; i < first + kLoop; ++i) {
        trace.push_symbol(order[i]);
      }
    }
  }
  const Trace tail = random_trace(6, 2'000, kSpace, /*burstiness=*/0.2);
  for (const Symbol s : tail.symbols()) trace.push_symbol(s);
  ASSERT_EQ(Trg::build(trace, TrgConfig{.window_entries = 8}).node_count(),
            kSpace);
  for (const std::uint32_t window : {8u, 64u, 1024u}) {
    expect_matches_oracle(trace, window);
  }
}

// ---------- geometry helpers -------------------------------------------------

TEST(TrgGeometry, SlotCountPaperConfiguration) {
  // 32KB, 4-way, 64B lines -> 128 sets; 64B blocks occupy 1 set-group.
  EXPECT_EQ(trg_slot_count(32 * 1024, 4, 64, 64), 128u);
  // 512-byte functions: ceil(512/256) = 2 set-groups -> 64 slots.
  EXPECT_EQ(trg_slot_count(32 * 1024, 4, 64, 512), 64u);
}

TEST(TrgGeometry, WindowEntriesIsTwiceCacheOverBlock) {
  EXPECT_EQ(trg_window_entries(32 * 1024, 64), 1024u);
  EXPECT_EQ(trg_window_entries(32 * 1024, 512), 128u);
}

TEST(TrgGeometry, RejectsOversizedBlock) {
  EXPECT_THROW(trg_slot_count(1024, 4, 64, 8192), ContractError);
}

// ---------- reduction (Algorithm 2, Figure 2) --------------------------------

/// The Figure 2 instance (weights reconstructed so the narrated reduction
/// holds): heaviest edge <A,B> splits A and B into slots 1 and 2; <E,F>
/// sends E to the empty slot 3 and F joins A (its least-conflict slot),
/// removing E<B,F>; then C joins E. Final: (A F)(B)(E C) -> A B E F C.
/// Symbols: A=0 B=1 C=2 E=3 F=4.
Trg fig2_graph() {
  Trg g;
  g.add_edge(0, 1, 40);  // A-B
  g.add_edge(3, 4, 35);  // E-F
  g.add_edge(2, 0, 30);  // C-A
  g.add_edge(1, 4, 15);  // B-F
  g.add_edge(2, 1, 12);  // C-B
  g.add_edge(2, 3, 10);  // C-E
  g.add_edge(0, 4, 10);  // A-F
  return g;
}

TEST(TrgReduce, Fig2SlotAssignment) {
  const TrgReduction r = reduce_trg(fig2_graph(), 3);
  ASSERT_EQ(r.slots.size(), 3u);
  EXPECT_EQ(r.slots[0], (std::vector<Symbol>{0, 4}));  // A F
  EXPECT_EQ(r.slots[1], (std::vector<Symbol>{1}));     // B
  EXPECT_EQ(r.slots[2], (std::vector<Symbol>{3, 2}));  // E C
}

TEST(TrgReduce, Fig2OutputSequence) {
  const TrgReduction r = reduce_trg(fig2_graph(), 3);
  // Round-robin over slot heads: A B E F C.
  EXPECT_EQ(r.order, (std::vector<Symbol>{0, 1, 3, 4, 2}));
}

TEST(TrgReduce, EveryNodeAppearsExactlyOnce) {
  Rng rng(3);
  Trace raw(Trace::Granularity::kBlock);
  for (int i = 0; i < 4000; ++i) {
    raw.push_symbol(static_cast<Symbol>(rng.zipf(60, 0.7)));
  }
  const Trace t = raw.trimmed();
  const Trg g = Trg::build(t);
  const TrgReduction r = reduce_trg(g, 8);
  auto sorted = r.order;
  std::sort(sorted.begin(), sorted.end());
  auto nodes = std::vector<Symbol>(g.nodes().begin(), g.nodes().end());
  std::sort(nodes.begin(), nodes.end());
  EXPECT_EQ(sorted, nodes);
}

TEST(TrgReduce, Deterministic) {
  Rng rng(9);
  Trace raw(Trace::Granularity::kBlock);
  for (int i = 0; i < 2000; ++i) {
    raw.push_symbol(static_cast<Symbol>(rng.below(30)));
  }
  const Trace t = raw.trimmed();
  const Trg g = Trg::build(t);
  EXPECT_EQ(reduce_trg(g, 16).order, reduce_trg(g, 16).order);
}

TEST(TrgReduce, IsolatedNodesStillPlaced) {
  Trg g;
  g.add_edge(0, 1, 5);
  // Nodes 7 and 8 exist only through a no-conflict trace build.
  const Trg with_isolated = Trg::build(make_trace({0, 1, 0, 7, 8}));
  const TrgReduction r = reduce_trg(with_isolated, 4);
  EXPECT_EQ(r.order.size(), 4u);
  EXPECT_NE(std::find(r.order.begin(), r.order.end(), 7u), r.order.end());
  EXPECT_NE(std::find(r.order.begin(), r.order.end(), 8u), r.order.end());
}

TEST(TrgReduce, SingleSlotDegeneratesToOneList) {
  const TrgReduction r = reduce_trg(fig2_graph(), 1);
  ASSERT_EQ(r.slots.size(), 1u);
  EXPECT_EQ(r.slots[0].size(), 5u);
  EXPECT_EQ(r.order.size(), 5u);
}

TEST(TrgReduce, ConflictingNodesLandInDifferentSlots) {
  // Two heavy-conflict nodes must not share a slot when slots are free.
  Trg g;
  g.add_edge(10, 11, 100);
  const TrgReduction r = reduce_trg(g, 2);
  // Each slot holds exactly one of them.
  ASSERT_EQ(r.slots.size(), 2u);
  EXPECT_EQ(r.slots[0].size(), 1u);
  EXPECT_EQ(r.slots[1].size(), 1u);
}

TEST(TrgReduce, ZeroSlotsRejected) {
  EXPECT_THROW(reduce_trg(fig2_graph(), 0), ContractError);
}

}  // namespace
}  // namespace codelayout
