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
// incremented. The stack is Sec. II-F's hash table plus list on dense ids,
// flat position arrays with O(1) touch (locality/lru_stack.hpp).
//
// Storage is flat: the edges sit once in one vector, in the (~weight, a, b)
// order that Algorithm 2 and the placement read them, and neighbors() reads
// a CSR adjacency filled from the same edges. The reduction
// (trg/reduction.hpp) works on this storage with no copy of it: a cursor
// over edges_by_weight(), the CSR slices, and its own tables indexed by
// node_position().
//
// Construction renumbers the nodes densely in first-appearance order and
// counts, per ordered pair (a, b), the reuses of a with b above it on the
// stack into a row-major u32 matrix; weight(a, b) = c[a][b] + c[b][a]. Rows
// are handled in blocks under one fixed byte budget, one trace pass per
// block, so memory stays bounded at any node count. Each block's nonzero
// counts leave as half-edges under their (min, max) symbol pair, and one
// radix sort on that pair sums the two halves of every edge (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

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

  /// An undirected edge, a < b.
  struct Edge {
    Symbol a;
    Symbol b;
    Weight weight;
  };

  /// One entry of a node's adjacency.
  struct Neighbor {
    Symbol to;
    Weight weight;
  };

  static Trg build(const Trace& trace, const TrgConfig& config = {});

  /// The graph over `nodes`, then every endpoint of `edges` not among them,
  /// in edge order. Edges on the same pair add up, in either orientation; a
  /// zero-weight edge is still an edge. The endpoints of an edge differ.
  static Trg from_edges(std::span<const Symbol> nodes,
                        std::span<const Edge> edges);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::span<const Symbol> nodes() const { return nodes_; }

  /// The weight of edge (a, b); 0 when there is none, also when a symbol is
  /// not in the graph.
  [[nodiscard]] Weight edge_weight(Symbol a, Symbol b) const;
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  /// All edges, sorted by descending weight then ascending (a, b).
  [[nodiscard]] std::span<const Edge> edges_by_weight() const {
    return edges_;
  }

  /// Adjacency of one node, sorted by neighbor symbol, as a contiguous CSR
  /// slice.
  [[nodiscard]] std::span<const Neighbor> neighbors(Symbol a) const;

  /// Position of `s` in nodes(): its dense id, which the reduction indexes
  /// by; an all-ones value for a symbol not in the graph.
  [[nodiscard]] std::uint32_t node_position(Symbol s) const {
    return s < node_index_.size() ? node_index_[s] : kNoNode;
  }

 private:
  static constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

  Trg() = default;

  /// The edgeless graph over `symbols` in first-appearance order, every
  /// symbol below `space`.
  static Trg over(std::span<const Symbol> symbols, std::size_t space);

  /// Sums the half-edges (a < b) of each pair into edges_, fills the CSR,
  /// then orders edges_ by weight.
  void set_edges(std::vector<Edge> half_edges);

  std::vector<Symbol> nodes_;  ///< first-appearance order
  std::vector<std::uint32_t> node_index_;  ///< symbol -> position in nodes_
  std::vector<Edge> edges_;    ///< (~weight, a, b) order
  /// CSR adjacency, indexed by node position.
  std::vector<std::uint32_t> adj_offsets_{0};
  std::vector<Neighbor> adj_;
};

}  // namespace codelayout
