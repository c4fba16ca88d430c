#include "trg/reduction.hpp"

#include <algorithm>
#include <span>

#include "support/check.hpp"

namespace codelayout {
namespace {

/// Algorithm 2 takes the heaviest edge, ties to the lower `u`, then the lower
/// `v`, where a supernode edge's `u` is its symbol and its `v` comes after
/// every symbol. This orders two edges that differ in weight or `u`.
bool precedes(Trg::Weight w, Symbol u, Trg::Weight other_w, Symbol other_u) {
  return w != other_w ? w > other_w : u < other_u;
}

/// Symbol-symbol edges pop from a cursor over edges_by_weight() that skips
/// any edge with a placed endpoint. Taking a supernode edge places its symbol
/// whatever its slot, so each unplaced node keeps only the weight of its
/// heaviest one.
class Reducer {
 public:
  Reducer(const Trg& graph, std::uint32_t slot_count)
      : graph_(graph),
        symbols_(graph.nodes()),
        k_(slot_count),
        slots_(slot_count),
        nodes_(graph.node_count()),
        conflicts_(graph.node_count() * std::size_t{slot_count}, 0) {
    CL_CHECK(slot_count > 0);
  }

  TrgReduction run() {
    const std::span<const Trg::Edge> edges = graph_.edges_by_weight();
    for (std::size_t next = 0;;) {
      while (next < edges.size() &&
             (placed(edges[next].a) || placed(edges[next].b))) {
        ++next;
      }
      std::uint32_t linked = kNone;  // the heaviest supernode edge's node
      for (std::uint32_t p = 0; p < nodes_.size(); ++p) {
        if (nodes_[p].linked &&
            (linked == kNone ||
             precedes(nodes_[p].heaviest, symbols_[p],
                      nodes_[linked].heaviest, symbols_[linked]))) {
          linked = p;
        }
      }
      // On an exact tie of weight and `u` the symbol edge goes first: its
      // `v` is a symbol.
      if (next < edges.size() &&
          (linked == kNone ||
           !precedes(nodes_[linked].heaviest, symbols_[linked],
                     edges[next].weight, edges[next].a))) {
        place(graph_.node_position(edges[next].a));
        place(graph_.node_position(edges[next].b));
      } else if (linked != kNone) {
        place(linked);
      } else {
        break;
      }
    }
    // Conflict-free leftovers go through the same selection rule.
    for (std::uint32_t p = 0; p < nodes_.size(); ++p) {
      if (!nodes_[p].placed) place(p);
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
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Node {
    Trg::Weight heaviest = 0;  ///< its heaviest supernode edge
    bool linked = false;       ///< unplaced, with a supernode edge
    bool placed = false;
  };

  [[nodiscard]] bool placed(Symbol s) const {
    return nodes_[graph_.node_position(s)].placed;
  }

  void place(std::uint32_t p) {
    // Steps 4-16: the first empty slot wins (slots fill in index order, so
    // it is slot `placed_count_`); otherwise the least conflict, the lowest
    // such slot on ties.
    const Trg::Weight* row = conflicts_.data() + std::size_t{p} * k_;
    const auto target = static_cast<std::uint32_t>(
        placed_count_ < k_ ? placed_count_
                           : std::min_element(row, row + k_) - row);
    ++placed_count_;
    slots_[target].push_back(symbols_[p]);
    nodes_[p] = Node{.heaviest = 0, .linked = false, .placed = true};

    // Steps 17-21: merge the node into the slot's supernode, so each
    // unplaced neighbor's edge to that supernode grows by their edge; the
    // node's edges toward the other slots leave with it.
    for (const auto& [to, w] : graph_.neighbors(symbols_[p])) {
      const std::uint32_t q = graph_.node_position(to);
      if (nodes_[q].placed) continue;
      Trg::Weight& conflict = conflicts_[std::size_t{q} * k_ + target];
      conflict += w;
      nodes_[q].heaviest = std::max(nodes_[q].heaviest, conflict);
      nodes_[q].linked = true;
    }
  }

  const Trg& graph_;
  std::span<const Symbol> symbols_;  ///< by node position
  std::uint32_t k_;
  std::vector<std::vector<Symbol>> slots_;
  std::vector<Node> nodes_;             ///< by node position
  std::vector<Trg::Weight> conflicts_;  ///< node position x slot
  std::size_t placed_count_ = 0;
};

}  // namespace

TrgReduction reduce_trg(const Trg& graph, std::uint32_t slot_count) {
  return Reducer(graph, slot_count).run();
}

}  // namespace codelayout
