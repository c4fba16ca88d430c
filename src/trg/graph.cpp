#include "trg/graph.hpp"

#include <algorithm>
#include <utility>

#include "locality/lru_stack.hpp"
#include "support/check.hpp"
#include "support/radix_sort.hpp"

namespace codelayout {
namespace {

/// Byte budget of one block of the pair-count matrix. The build handles the
/// matrix's rows in blocks of this size, one trace pass per block, so the
/// counts stay bounded at any node count: up to 1024 nodes take one pass,
/// and the 4000 kept by the default prune take 16.
constexpr std::size_t kCountBlockBytes = std::size_t{4} << 20;

}  // namespace

std::uint32_t trg_window_entries(std::uint64_t cache_bytes,
                                 std::uint32_t block_bytes) {
  CL_CHECK(block_bytes > 0);
  const std::uint64_t entries = 2 * cache_bytes / block_bytes;
  CL_CHECK_MSG(entries > 0, "window smaller than one block");
  return static_cast<std::uint32_t>(entries);
}

std::uint32_t trg_slot_count(std::uint64_t cache_bytes, std::uint32_t assoc,
                             std::uint32_t line_bytes,
                             std::uint32_t block_bytes) {
  CL_CHECK(assoc > 0 && line_bytes > 0 && block_bytes > 0);
  const std::uint64_t way_bytes = assoc * static_cast<std::uint64_t>(line_bytes);
  const std::uint64_t sets = cache_bytes / way_bytes;
  const std::uint64_t sets_per_block = (block_bytes + way_bytes - 1) / way_bytes;
  CL_CHECK(sets > 0);
  const std::uint64_t slots = sets / sets_per_block;
  CL_CHECK_MSG(slots > 0, "code block larger than the cache");
  return static_cast<std::uint32_t>(slots);
}

Trg Trg::over(std::span<const Symbol> symbols, std::size_t space) {
  Trg graph;
  graph.node_index_.assign(space, kNoNode);
  for (const Symbol s : symbols) {
    if (graph.node_index_[s] == kNoNode) {
      graph.node_index_[s] = static_cast<std::uint32_t>(graph.nodes_.size());
      graph.nodes_.push_back(s);
    }
  }
  return graph;
}

Trg Trg::build(const Trace& trace, const TrgConfig& config) {
  CL_CHECK(config.window_entries > 0);
  const std::span<const Symbol> symbols = trace.symbols();
  // A pair is credited at most once per event, so 32-bit counts cannot wrap.
  CL_CHECK_MSG(symbols.size() < (std::uint64_t{1} << 32),
               "trace of " << symbols.size()
                           << " events overflows the TRG's pair counts");

  // Dense ids are positions in first-appearance order, i.e. in nodes_: a
  // walk only meets symbols that have already occurred.
  Trg graph = over(symbols, trace.symbol_space());
  const std::size_t n = graph.nodes_.size();
  if (n == 0) return graph;

  // c[a][b] counts the reuses of a with b above it on the stack: one
  // potential conflict each (Definition 6). Each pass replays the stack over
  // the whole trace but walks only for rows in its block, so every walk
  // happens in exactly one pass. The TRG is defined over the trimmed trace,
  // but a repeat event is a stack no-op (its symbol is already on top), so
  // the untrimmed trace builds the identical graph without a trimmed copy.
  const std::size_t block_rows = std::clamp<std::size_t>(
      kCountBlockBytes / (n * sizeof(std::uint32_t)), 1, n);
  std::vector<std::uint32_t> counts(block_rows * n, 0);
  std::vector<Edge> half_edges;
  for (std::size_t lo = 0; lo < n; lo += block_rows) {
    const std::size_t hi = std::min(n, lo + block_rows);
    LruStack stack(static_cast<Symbol>(n));
    for (const Symbol s : symbols) {
      const std::uint32_t a = graph.node_index_[s];
      if (a >= lo && a < hi && stack.resident(a)) {
        std::uint32_t* row = counts.data() + (a - lo) * n;
        stack.for_above(a, [row](Symbol b) {
          ++row[b];
          return true;
        });
      }
      stack.touch(a);
      stack.evict_to_count(config.window_entries);
    }
    // weight(a, b) = c[a][b] + c[b][a]: each count is one half of the
    // edge on the pair (min, max).
    for (std::size_t a = lo; a < hi; ++a) {
      std::uint32_t* row = counts.data() + (a - lo) * n;
      const Symbol x = graph.nodes_[a];
      for (std::size_t b = 0; b < n; ++b) {
        if (row[b] == 0) continue;
        const Symbol y = graph.nodes_[b];
        half_edges.push_back(
            {std::min(x, y), std::max(x, y), std::exchange(row[b], 0)});
      }
    }
  }
  graph.set_edges(std::move(half_edges));
  return graph;
}

Trg Trg::from_edges(std::span<const Symbol> nodes,
                    std::span<const Edge> edges) {
  std::vector<Symbol> symbols(nodes.begin(), nodes.end());
  std::vector<Edge> half_edges;
  half_edges.reserve(edges.size());
  for (const Edge& e : edges) {
    CL_CHECK_MSG(e.a != e.b, "edge from symbol " << e.a << " to itself");
    symbols.push_back(e.a);
    symbols.push_back(e.b);
    half_edges.push_back({std::min(e.a, e.b), std::max(e.a, e.b), e.weight});
  }
  const std::size_t space =
      symbols.empty()
          ? 0
          : std::size_t{*std::max_element(symbols.begin(), symbols.end())} + 1;
  Trg graph = over(symbols, space);
  graph.set_edges(std::move(half_edges));
  return graph;
}

void Trg::set_edges(std::vector<Edge> half_edges) {
  // Sorted on (a, b), the halves of each pair are adjacent: sum them.
  radix_sort(half_edges, [](const Edge& e) {
    return (std::uint64_t{e.a} << 32) | e.b;
  });
  std::size_t size = 0;
  for (const Edge& e : half_edges) {
    if (size > 0 && half_edges[size - 1].a == e.a &&
        half_edges[size - 1].b == e.b) {
      half_edges[size - 1].weight += e.weight;
    } else {
      half_edges[size++] = e;
    }
  }
  half_edges.resize(size);
  half_edges.shrink_to_fit();
  edges_ = std::move(half_edges);

  // In (a, b) order a node's lower neighbors come first, then its higher
  // ones, each ascending: every slice fills sorted by neighbor symbol.
  adj_offsets_.assign(nodes_.size() + 1, 0);
  for (const Edge& e : edges_) {
    ++adj_offsets_[node_index_[e.a] + 1];
    ++adj_offsets_[node_index_[e.b] + 1];
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    adj_offsets_[i + 1] += adj_offsets_[i];
  }
  adj_.resize(adj_offsets_.back());
  std::vector<std::uint32_t> cursor(adj_offsets_.begin(),
                                    adj_offsets_.end() - 1);
  for (const Edge& e : edges_) {
    adj_[cursor[node_index_[e.a]]++] = Neighbor{e.b, e.weight};
    adj_[cursor[node_index_[e.b]]++] = Neighbor{e.a, e.weight};
  }

  // A stable pass on ~weight keeps (a, b) order within each weight.
  radix_sort(edges_, [](const Edge& e) { return ~e.weight; });
}

Trg::Weight Trg::edge_weight(Symbol a, Symbol b) const {
  if (node_position(a) == kNoNode) return 0;
  const std::span<const Neighbor> slice = neighbors(a);
  const auto it = std::partition_point(
      slice.begin(), slice.end(), [b](const Neighbor& x) { return x.to < b; });
  return it != slice.end() && it->to == b ? it->weight : 0;
}

std::span<const Trg::Neighbor> Trg::neighbors(Symbol a) const {
  const std::uint32_t position = node_position(a);
  CL_CHECK_MSG(position != kNoNode, "symbol " << a << " not in TRG");
  return {adj_.data() + adj_offsets_[position],
          adj_offsets_[position + 1] - adj_offsets_[position]};
}

}  // namespace codelayout
