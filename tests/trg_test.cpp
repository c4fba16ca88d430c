#include <algorithm>
#include <limits>
#include <queue>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "support/check.hpp"
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
  const std::vector<Trg::Edge> input = {{1, 2, 10}, {3, 4, 10}, {1, 3, 50}};
  const Trg g = Trg::from_edges({}, input);
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

TEST(TrgFromEdges, RepeatedPairsSumAndZeroWeightEdgesStay) {
  // Node 3 is isolated; 5-7 comes twice, once each way; 9-8 weighs 0.
  const std::vector<Symbol> nodes = {3};
  const std::vector<Trg::Edge> edges = {{5, 7, 3}, {7, 5, 4}, {9, 8, 0}};
  const Trg g = Trg::from_edges(nodes, edges);
  EXPECT_EQ(std::vector<Symbol>(g.nodes().begin(), g.nodes().end()),
            (std::vector<Symbol>{3, 5, 7, 9, 8}));
  ASSERT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.edge_weight(5, 7), 7u);
  EXPECT_EQ(g.edge_weight(7, 5), 7u);
  const auto by_weight = g.edges_by_weight();
  EXPECT_EQ(by_weight[1].a, 8u);
  EXPECT_EQ(by_weight[1].b, 9u);
  EXPECT_EQ(by_weight[1].weight, 0u);
  EXPECT_EQ(g.edge_weight(8, 9), 0u);
  ASSERT_EQ(g.neighbors(9).size(), 1u);
  EXPECT_EQ(g.neighbors(9)[0].to, 8u);
  EXPECT_TRUE(g.neighbors(3).empty());

  // Absent pairs and unknown symbols weigh 0.
  EXPECT_EQ(g.edge_weight(5, 9), 0u);
  EXPECT_EQ(g.edge_weight(5, 5), 0u);
  EXPECT_EQ(g.edge_weight(5, 42), 0u);
  EXPECT_EQ(g.edge_weight(42, 5), 0u);
  EXPECT_EQ(g.edge_weight(4, 5), 0u);

  // The zero-weight edge pops like any other: 8 and 9 take the two free
  // slots, and the isolated 3 is left over. Without that edge, 3 would
  // take slot 2 and 8 would share slot 0.
  const TrgReduction r = reduce_trg(g, 4);
  EXPECT_EQ(r.slots,
            (std::vector<std::vector<Symbol>>{{5, 3}, {7}, {8}, {9}}));
  EXPECT_EQ(r.order, (std::vector<Symbol>{5, 7, 8, 9, 3}));
}

TEST(TrgFromEdges, RejectsASelfEdge) {
  const std::vector<Trg::Edge> edges = {{4, 4, 1}};
  EXPECT_THROW((void)Trg::from_edges({}, edges), ContractError);
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

// ---------- reference reduction --------------------------------------------

// The reference for reduce_trg: Algorithm 2 over a hash-map copy of the
// graph, with one supernode key per slot after every symbol and a lazy
// max-heap over all edges that skips stale entries. reduce_trg must return
// the same order and slots.

/// Node key space: original symbols, then one supernode key per slot.
using Key = std::uint64_t;

struct HeapEdge {
  Trg::Weight weight;
  Key u, v;  // u < v

  /// priority_queue pops the largest; heavier first, then lower keys for
  /// determinism.
  friend bool operator<(const HeapEdge& x, const HeapEdge& y) {
    if (x.weight != y.weight) return x.weight < y.weight;
    if (x.u != y.u) return x.u > y.u;
    return x.v > y.v;
  }
};

class Reducer {
 public:
  Reducer(const Trg& graph, std::uint32_t slot_count)
      : graph_(graph), k_(slot_count) {
    CL_CHECK(slot_count > 0);
    Symbol space = 0;
    for (Symbol s : graph.nodes()) space = std::max(space, s + 1);
    super_base_ = space;
    slots_.resize(k_);

    for (Symbol s : graph.nodes()) {
      adj_[s];  // ensure presence even for isolated nodes
      for (const auto& [n, w] : graph.neighbors(s)) adj_[s][n] = w;
    }
    for (Symbol s : graph.nodes()) {
      for (const auto& [n, w] : graph.neighbors(s)) {
        if (s < n) heap_.push(HeapEdge{w, s, n});
      }
    }
  }

  TrgReduction run() {
    while (!heap_.empty()) {
      const HeapEdge e = heap_.top();
      heap_.pop();
      if (!edge_current(e)) continue;
      if (is_symbol(e.u) && !placed_.contains(e.u)) place(static_cast<Symbol>(e.u));
      if (is_symbol(e.v) && !placed_.contains(e.v)) place(static_cast<Symbol>(e.v));
    }
    // Conflict-free leftovers go through the same selection rule.
    for (Symbol s : graph_.nodes()) {
      if (!placed_.contains(s)) place(s);
    }

    TrgReduction result;
    result.slots = slots_;
    std::vector<std::size_t> cursor(k_, 0);
    bool any = true;
    while (any) {
      any = false;
      for (std::uint32_t k = 0; k < k_; ++k) {
        if (cursor[k] < slots_[k].size()) {
          result.order.push_back(slots_[k][cursor[k]++]);
          any = true;
        }
      }
    }
    return result;
  }

 private:
  [[nodiscard]] bool is_symbol(Key key) const { return key < super_base_; }
  [[nodiscard]] Key super_key(std::uint32_t slot) const {
    return super_base_ + slot;
  }

  [[nodiscard]] bool edge_current(const HeapEdge& e) const {
    const auto it = adj_.find(e.u);
    if (it == adj_.end()) return false;
    const auto jt = it->second.find(e.v);
    return jt != it->second.end() && jt->second == e.weight;
  }

  [[nodiscard]] Trg::Weight conflict_with_slot(Symbol s,
                                               std::uint32_t slot) const {
    const auto it = adj_.find(s);
    if (it == adj_.end()) return 0;
    const auto jt = it->second.find(super_key(slot));
    return jt == it->second.end() ? 0 : jt->second;
  }

  void place(Symbol s) {
    // Steps 4-16: first empty slot wins; otherwise least conflict, first
    // such slot on ties (strict < keeps the earliest minimum).
    std::uint32_t target = 0;
    Trg::Weight conflicts = std::numeric_limits<Trg::Weight>::max();
    for (std::uint32_t k = 0; k < k_; ++k) {
      if (slots_[k].empty()) {
        target = k;
        conflicts = 0;
        break;
      }
      const Trg::Weight w = conflict_with_slot(s, k);
      if (w < conflicts) {
        conflicts = w;
        target = k;
      }
    }
    slots_[target].push_back(s);
    placed_.emplace(s, target);

    // Steps 17-21: merge s into the slot's supernode; combine edge weights;
    // edges toward the other slots disappear.
    const Key su = super_key(target);
    auto& sym_adj = adj_[s];
    for (const auto& [n, w] : sym_adj) {
      adj_[n].erase(s);
      if (!is_symbol(n)) continue;  // edge to another slot: removed
      const Trg::Weight combined = (adj_[su][n] += w);
      adj_[n][su] = combined;
      heap_.push(HeapEdge{combined, std::min(su, n), std::max(su, n)});
    }
    adj_.erase(s);
  }

  const Trg& graph_;
  std::uint32_t k_;
  Key super_base_;
  std::vector<std::vector<Symbol>> slots_;
  std::unordered_map<Key, std::unordered_map<Key, Trg::Weight>> adj_;
  std::unordered_map<Symbol, std::uint32_t> placed_;
  std::priority_queue<HeapEdge> heap_;
};

TrgReduction reference_reduce(const Trg& graph, std::uint32_t slot_count) {
  return Reducer(graph, slot_count).run();
}

// ---------- reduction (Algorithm 2, Figure 2) --------------------------------

/// The Figure 2 instance (weights reconstructed so the narrated reduction
/// holds): heaviest edge <A,B> splits A and B into slots 1 and 2; <E,F>
/// sends E to the empty slot 3 and F joins A (its least-conflict slot),
/// removing E<B,F>; then C joins E. Final: (A F)(B)(E C) -> A B E F C.
/// Symbols: A=0 B=1 C=2 E=3 F=4.
Trg fig2_graph() {
  const std::vector<Trg::Edge> edges = {
      {0, 1, 40},  // A-B
      {3, 4, 35},  // E-F
      {2, 0, 30},  // C-A
      {1, 4, 15},  // B-F
      {2, 1, 12},  // C-B
      {2, 3, 10},  // C-E
      {0, 4, 10},  // A-F
  };
  return Trg::from_edges({}, edges);
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
  const std::vector<Trg::Edge> edges = {{10, 11, 100}};
  const TrgReduction r = reduce_trg(Trg::from_edges({}, edges), 2);
  // Each slot holds exactly one of them.
  ASSERT_EQ(r.slots.size(), 2u);
  EXPECT_EQ(r.slots[0].size(), 1u);
  EXPECT_EQ(r.slots[1].size(), 1u);
}

TEST(TrgReduce, ZeroSlotsRejected) {
  EXPECT_THROW(reduce_trg(fig2_graph(), 0), ContractError);
}

// ---------- reduction against the reference ----------------------------------

constexpr std::uint32_t kSlotCounts[] = {1, 2, 3, 8, 64};

void expect_matches_reference(const Trg& graph) {
  for (const std::uint32_t k : kSlotCounts) {
    const TrgReduction fast = reduce_trg(graph, k);
    const TrgReduction reference = reference_reduce(graph, k);
    ASSERT_EQ(fast.slots, reference.slots) << k << " slots";
    ASSERT_EQ(fast.order, reference.order) << k << " slots";
  }
}

/// A random graph: up to 40 nodes with sparse symbol values,
/// first-appearance order unrelated to symbol order, weights 0-4 (so weight
/// ties and zero-weight edges are common), repeated pairs that add up, and
/// isolated nodes listed ahead of the edges.
Trg random_graph(Rng& rng) {
  const std::uint64_t n = 1 + rng.below(40);
  std::vector<Symbol> symbols;
  while (symbols.size() < n) {
    const auto s = static_cast<Symbol>(rng.below(1'000));
    if (std::find(symbols.begin(), symbols.end(), s) == symbols.end()) {
      symbols.push_back(s);
    }
  }
  const std::vector<Symbol> nodes(symbols.begin(),
                                  symbols.begin() + rng.below(n + 1));
  std::vector<Trg::Edge> edges;
  const std::uint64_t edge_draws = rng.below(3 * n + 1);
  for (std::uint64_t i = 0; i < edge_draws; ++i) {
    const Symbol a = symbols[rng.below(n)];
    const Symbol b = symbols[rng.below(n)];
    if (a != b) edges.push_back({a, b, rng.below(5)});
  }
  return Trg::from_edges(nodes, edges);
}

TEST(TrgReduceReference, RandomGraphsMatch) {
  Rng rng(2014);
  for (int i = 0; i < 3'000; ++i) {
    SCOPED_TRACE(::testing::Message() << "graph " << i);
    expect_matches_reference(random_graph(rng));
  }
}

TEST(TrgReduceReference, BuiltGraphsMatch) {
  for (const std::uint64_t seed : {1, 7, 23, 41}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    expect_matches_reference(Trg::build(random_trace(seed, 3'000, 150)));
    expect_matches_reference(Trg::build(random_trace(seed, 3'000, 150),
                                        TrgConfig{.window_entries = 8}));
  }
}

TEST(TrgReduceReference, Fig2AndEmptyGraphsMatch) {
  expect_matches_reference(fig2_graph());
  expect_matches_reference(Trg::from_edges({}, {}));
  expect_matches_reference(Trg::build(make_trace({0, 1, 0, 7, 8})));
}

}  // namespace
}  // namespace codelayout
