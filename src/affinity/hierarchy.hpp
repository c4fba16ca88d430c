// The w-window affinity hierarchy (paper Sec. II-B, Definitions 3-5).
//
// As the window size w grows from 1 to infinity the affinity partitions
// coarsen monotonically: singletons at the bottom, one all-inclusive group at
// the top (Definition 5, Figure 1). The hierarchy is a forest of groups; a
// group records the w at which it formed and its child groups. The optimized
// code order is a bottom-up traversal (Sec. II-B last paragraph): members of
// tighter groups are emitted adjacently, groups ordered by first appearance
// in the trace.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace codelayout {

struct AffinityGroup {
  std::uint32_t id = 0;
  /// Window size at which this group formed (1 for leaf singletons).
  std::uint32_t formed_at_w = 1;
  /// All member symbols, in first-appearance order.
  std::vector<Symbol> members;
  /// Child group ids (empty for leaves).
  std::vector<std::uint32_t> children;
  /// Earliest trace position at which any member occurs (ordering key).
  std::uint64_t first_occurrence = 0;
};

class AffinityHierarchy {
 public:
  AffinityHierarchy(std::vector<AffinityGroup> nodes,
                    std::vector<std::uint32_t> roots);

  [[nodiscard]] std::span<const AffinityGroup> nodes() const { return nodes_; }
  [[nodiscard]] std::span<const std::uint32_t> roots() const { return roots_; }
  [[nodiscard]] const AffinityGroup& node(std::uint32_t id) const;

  /// The partition at window size w: ids of the maximal groups formed at or
  /// below w.
  [[nodiscard]] std::vector<std::uint32_t> partition_at(std::uint32_t w) const;

  /// Bottom-up traversal: the optimized symbol order, sibling groups by
  /// earliest trace occurrence (paper Fig. 1).
  [[nodiscard]] std::vector<Symbol> layout_order() const;

  /// Number of symbols covered by the hierarchy.
  [[nodiscard]] std::size_t symbol_count() const;

  /// ASCII rendering of the forest (for examples and debugging).
  [[nodiscard]] std::string to_string() const;

 private:
  void order_children(std::vector<std::uint32_t>& ids) const;

  std::vector<AffinityGroup> nodes_;
  std::vector<std::uint32_t> roots_;
};

}  // namespace codelayout
