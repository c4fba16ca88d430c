#include "trg/graph.hpp"

#include <algorithm>
#include <utility>

#include "locality/lru_stack.hpp"
#include "support/check.hpp"

namespace codelayout {
namespace {

/// Byte budget of one block of the pair-count matrix. The build handles the
/// matrix's rows in blocks of this size, one trace pass per block, so the
/// counts stay bounded at any node count: up to 1024 nodes take one pass,
/// and the 4000 kept by the default prune take 16.
constexpr std::size_t kCountBlockBytes = std::size_t{4} << 20;

inline std::uint64_t edge_key(Symbol a, Symbol b) {
  const Symbol lo = a < b ? a : b;
  const Symbol hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

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

Trg Trg::build(const Trace& trace, const TrgConfig& config) {
  CL_CHECK(config.window_entries > 0);
  const std::span<const Symbol> symbols = trace.symbols();
  // A pair is credited at most once per event, so 32-bit counts cannot wrap.
  CL_CHECK_MSG(symbols.size() < (std::uint64_t{1} << 32),
               "trace of " << symbols.size()
                           << " events overflows the TRG's pair counts");

  // Dense ids are positions in first-appearance order, i.e. in nodes_: a
  // walk only meets symbols that have already occurred.
  Trg graph;
  graph.node_index_.assign(trace.symbol_space(), kNoNode);
  for (const Symbol s : symbols) graph.note_node(s);
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
    // weight(a, b) = c[a][b] + c[b][a]: the two additions under one key.
    for (std::size_t a = lo; a < hi; ++a) {
      std::uint32_t* row = counts.data() + (a - lo) * n;
      for (std::size_t b = 0; b < n; ++b) {
        if (row[b] == 0) continue;
        graph.edges_[edge_key(graph.nodes_[a], graph.nodes_[b])] +=
            std::exchange(row[b], 0);
      }
    }
  }
  graph.ensure_adjacency();
  return graph;
}

void Trg::note_node(Symbol s) {
  if (s >= node_index_.size()) node_index_.resize(s + 1, kNoNode);
  if (node_index_[s] == kNoNode) {
    node_index_[s] = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(s);
  }
}

void Trg::add_edge(Symbol a, Symbol b, Weight w) {
  CL_CHECK(a != b);
  note_node(a);
  note_node(b);
  edges_[edge_key(a, b)] += w;
  adjacency_valid_ = false;
}

Trg::Weight Trg::edge_weight(Symbol a, Symbol b) const {
  if (a == b) return 0;
  const Weight* w = edges_.find(edge_key(a, b));
  return w == nullptr ? 0 : *w;
}

std::vector<Trg::Edge> Trg::edges_by_weight() const {
  std::vector<Edge> out;
  out.reserve(edge_count());
  edges_.for_each([&](std::uint64_t key, const Weight& w) {
    out.push_back(Edge{static_cast<Symbol>(key >> 32),
                       static_cast<Symbol>(key & 0xffffffffu), w});
  });
  std::sort(out.begin(), out.end(), [](const Edge& x, const Edge& y) {
    if (x.weight != y.weight) return x.weight > y.weight;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  return out;
}

std::span<const Trg::Neighbor> Trg::neighbors(Symbol a) const {
  const std::uint32_t position = node_position(a);
  CL_CHECK_MSG(position != kNoNode, "symbol " << a << " not in TRG");
  ensure_adjacency();
  return {adj_.data() + adj_offsets_[position],
          adj_offsets_[position + 1] - adj_offsets_[position]};
}

void Trg::ensure_adjacency() const {
  if (adjacency_valid_) return;
  adj_offsets_.assign(nodes_.size() + 1, 0);
  edges_.for_each([&](std::uint64_t key, const Weight&) {
    ++adj_offsets_[node_position(static_cast<Symbol>(key >> 32)) + 1];
    ++adj_offsets_[node_position(static_cast<Symbol>(key & 0xffffffffu)) + 1];
  });
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    adj_offsets_[i + 1] += adj_offsets_[i];
  }
  adj_.resize(adj_offsets_.back());
  std::vector<std::uint32_t> cursor(adj_offsets_.begin(),
                                    adj_offsets_.end() - 1);
  edges_.for_each([&](std::uint64_t key, const Weight& w) {
    const auto lo = static_cast<Symbol>(key >> 32);
    const auto hi = static_cast<Symbol>(key & 0xffffffffu);
    adj_[cursor[node_position(lo)]++] = Neighbor{hi, w};
    adj_[cursor[node_position(hi)]++] = Neighbor{lo, w};
  });
  // Sort each slice by neighbor symbol so iteration order is deterministic
  // regardless of the accumulator's internal layout.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::sort(adj_.begin() + adj_offsets_[i],
              adj_.begin() + adj_offsets_[i + 1],
              [](const Neighbor& x, const Neighbor& y) { return x.to < y.to; });
  }
  adjacency_valid_ = true;
}

}  // namespace codelayout
