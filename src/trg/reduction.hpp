// TRG reduction (paper Sec. II-C, Algorithm 2).
//
// The paper modifies Gloy & Smith's placement: instead of padding functions
// to cache-aligned addresses, reduction distributes code blocks over K cache
// "code slots" and emits a new linear order. Repeatedly the heaviest edge is
// taken; an unplaced endpoint goes to the first empty slot, or failing that
// the slot whose merged supernode it conflicts with least. Placing a node
// merges it into the slot's supernode (edge weights combine) and deletes its
// edges to the other slots. The final sequence reads the slot lists
// round-robin, head first.
//
// The reduction runs over the graph's own storage (DESIGN.md §10). A
// symbol-symbol edge keeps its weight until an endpoint is placed, so those
// edges pop in edges_by_weight() order; supernode edges only grow, so their
// weights live in a dense node x K table and each unplaced node competes with
// its heaviest one.
#pragma once

#include <cstdint>
#include <vector>

#include "trg/graph.hpp"

namespace codelayout {

struct TrgReduction {
  /// The reordered code-block sequence (every TRG node exactly once).
  std::vector<Symbol> order;
  /// The K slot lists after reduction, for inspection and tests.
  std::vector<std::vector<Symbol>> slots;
};

/// Reduces `graph` over `slot_count` code slots. Nodes untouched by any edge
/// are placed afterwards, in first-appearance order, through the same
/// slot-selection rule. Deterministic: ties on edge weight go to the lower
/// first endpoint symbol, then the lower second one, where a supernode
/// follows every symbol; slot ties go to the lower slot.
TrgReduction reduce_trg(const Trg& graph, std::uint32_t slot_count);

}  // namespace codelayout
