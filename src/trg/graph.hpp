// Temporal Relationship Graph (paper Sec. II-C, Definition 6; Gloy & Smith
// TOPLAS'99).
//
// Nodes are code blocks; an undirected edge carries the number of potential
// conflicts: the times two successive occurrences of one endpoint are
// interleaved by at least one occurrence of the other. Construction runs the
// trace through an LRU stack capped at a 2C footprint window (the paper
// follows Gloy & Smith's advice of examining a window of twice the cache
// size): on a reuse of block A, every block above A on the stack occurred
// between A's two successive occurrences, so each such pair's edge weight is
// incremented. The stack uses the hash-table-plus-list layout of Sec. II-F
// for O(1) touch.
//
// Storage is flat: edges accumulate in one open-addressing table keyed by
// the packed (lo, hi) pair, and neighbors() reads a CSR adjacency built from
// that table, so both edges_by_weight() and the reduction's neighbor scans
// walk contiguous memory instead of a hash map of hash maps.
//
// Construction renumbers the nodes densely in first-appearance order and
// counts, per ordered pair (a, b), the reuses of a with b above it on the
// stack into a row-major u32 matrix; weight(a, b) = c[a][b] + c[b][a]. Rows
// are handled in blocks under one fixed byte budget, one trace pass per
// block, so memory stays bounded at any node count (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/flat_map.hpp"
#include "trace/trace.hpp"

namespace codelayout {

class ThreadPool;

struct TrgConfig {
  /// Footprint cap of the co-occurrence window, in code blocks. The paper's
  /// 2C bytes with uniform block size S gives 2C/S entries; see
  /// trg_window_entries().
  std::uint32_t window_entries = 1024;

  /// Carries nothing; kept only while perfbench/walk.cpp assigns it.
  ThreadPool* pool = nullptr;

  /// Carries nothing (see AnalysisDispatch in trace/trace.hpp).
  AnalysisDispatch dispatch{};
};

/// Entries of the 2C-byte window under the uniform-block-size assumption.
std::uint32_t trg_window_entries(std::uint64_t cache_bytes,
                                 std::uint32_t block_bytes);

/// Number of code slots K for TRG reduction: (C/(A*B)) / ceil(S/(A*B))
/// cache-set groups, after aligning blocks to line boundaries (Sec. II-C).
std::uint32_t trg_slot_count(std::uint64_t cache_bytes, std::uint32_t assoc,
                             std::uint32_t line_bytes,
                             std::uint32_t block_bytes);

class Trg {
 public:
  using Weight = std::uint64_t;

  static Trg build(const Trace& trace, const TrgConfig& config = {});

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::span<const Symbol> nodes() const { return nodes_; }

  [[nodiscard]] Weight edge_weight(Symbol a, Symbol b) const;
  /// Number of distinct edges; O(1) (the accumulator's size).
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  /// All edges as (a, b, weight) with a < b, sorted by descending weight then
  /// ascending (a, b) for determinism.
  struct Edge {
    Symbol a;
    Symbol b;
    Weight weight;
  };
  [[nodiscard]] std::vector<Edge> edges_by_weight() const;

  /// Adjacency of one node, sorted by neighbor symbol, as a contiguous CSR
  /// slice. Rebuilt lazily after add_edge; not safe to first-access
  /// concurrently with a mutation (a fully built graph is fine to share).
  struct Neighbor {
    Symbol to;
    Weight weight;
  };
  [[nodiscard]] std::span<const Neighbor> neighbors(Symbol a) const;

  void add_edge(Symbol a, Symbol b, Weight w);  ///< also used by tests

 private:
  static constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

  void note_node(Symbol s);
  [[nodiscard]] std::uint32_t node_position(Symbol s) const {
    return s < node_index_.size() ? node_index_[s] : kNoNode;
  }
  void ensure_adjacency() const;

  std::vector<Symbol> nodes_;  ///< first-appearance order
  std::vector<std::uint32_t> node_index_;  ///< symbol -> position in nodes_
  FlatKeyMap<Weight> edges_;   ///< packed (lo, hi) pair -> weight

  /// CSR adjacency derived from edges_, indexed by node position.
  mutable bool adjacency_valid_ = false;
  mutable std::vector<std::uint32_t> adj_offsets_;
  mutable std::vector<Neighbor> adj_;
};

}  // namespace codelayout
