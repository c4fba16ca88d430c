#include "trg/graph.hpp"

#include <algorithm>

#include "locality/lru_stack.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/registry.hpp"
#include "support/thread_pool.hpp"
#include "support/trace_recorder.hpp"

namespace codelayout {
namespace {

inline std::uint64_t edge_key(Symbol a, Symbol b) {
  const Symbol lo = a < b ? a : b;
  const Symbol hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// Partial result of one build shard: chunk-local first-appearance node
/// order plus the chunk's edge contributions.
struct BuildShard {
  std::vector<Symbol> nodes;
  FlatKeyMap<Trg::Weight> edges;
  std::uint64_t warmup_scanned_events = 0;
};

/// Processes events [lo, hi) against `stack` (already in the exact serial
/// state at lo), recording nodes in first-appearance order and edge credits
/// for events inside the chunk.
void shard_scan(std::span<const Symbol> symbols, std::size_t lo,
                std::size_t hi, LruStack& stack, std::uint32_t window_entries,
                Symbol space, BuildShard& shard) {
  std::vector<std::uint8_t> noted(space, 0);
  for (std::size_t j = lo; j < hi; ++j) {
    const Symbol a = symbols[j];
    if (!noted[a]) {
      noted[a] = 1;
      shard.nodes.push_back(a);
    }
    if (stack.resident(a)) {
      // Everything above `a` occurred between its two successive
      // occurrences — one potential conflict per such pair (Definition 6).
      stack.for_above(a, [&](Symbol b) {
        if (!noted[b]) {
          noted[b] = 1;
          shard.nodes.push_back(b);
        }
        shard.edges[edge_key(a, b)] += 1;
        return true;
      });
    }
    stack.touch(a);
    stack.evict_to_weight(window_entries);
  }
}

/// Reconstructs the serial stack state at event index `lo`: the state of a
/// weight-capped LRU stack is the maximal <=cap prefix of the recency
/// (last-occurrence) order of the preceding events, so a backward scan that
/// collects each symbol at its first (most recent) sighting, stopping at the
/// cap, recovers it exactly — no forward replay of the prefix needed. TRG
/// stacks use unit weights, so the cap is a plain entry count.
std::uint64_t warm_start(std::span<const Symbol> symbols, std::size_t lo,
                         std::uint32_t window_entries, Symbol space,
                         LruStack& stack) {
  std::vector<Symbol> recent;  // topmost first
  std::vector<std::uint8_t> seen(space, 0);
  std::size_t scanned = 0;
  for (std::size_t j = lo; j-- > 0 && recent.size() < window_entries;) {
    ++scanned;
    const Symbol s = symbols[j];
    if (seen[s]) continue;
    seen[s] = 1;
    recent.push_back(s);
  }
  stack.restore(recent);
  return scanned;
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

  Trg graph;
  const Symbol space = trace.symbol_space();
  if (space == 0) return graph;

  // The TRG is defined over the trimmed trace, but a repeat event is a
  // stack no-op (the symbol is already on top: for_above yields nothing,
  // touch early-returns, no eviction pressure changes), so scanning the
  // untrimmed trace builds the identical graph without a trimmed copy.
  const std::span<const Symbol> symbols = trace.symbols();
  std::size_t shard_count = config.shards;
  if (shard_count == 0) {
    shard_count = config.pool == nullptr ? 1 : config.pool->size() + 1;
  }
  shard_count = std::min<std::size_t>(shard_count, symbols.size());
  std::uint64_t warmup_scanned = 0;

  if (shard_count <= 1) {
    LruStack stack(space);
    BuildShard whole;
    shard_scan(symbols, 0, symbols.size(), stack, config.window_entries,
               space, whole);
    for (const Symbol s : whole.nodes) graph.note_node(s);
    whole.edges.for_each([&](std::uint64_t key, const Weight& w) {
      graph.edges_[key] = w;
    });
  } else {
    std::vector<BuildShard> shards(shard_count);
    const auto chunk_begin = [&](std::size_t k) {
      return symbols.size() * k / shard_count;
    };
    ParallelTaskSet tasks(config.pool, shard_count, [&](std::size_t k) {
      CODELAYOUT_PHASE("trg_shard", "analysis", "analysis.trg_shard.wall_ns",
                       {"shard", std::uint64_t{k}});
      const std::size_t lo = chunk_begin(k);
      LruStack stack(space);
      shards[k].warmup_scanned_events =
          warm_start(symbols, lo, config.window_entries, space, stack);
      shard_scan(symbols, lo, chunk_begin(k + 1), stack,
                 config.window_entries, space, shards[k]);
    });
    // Fold in chunk order as shards complete: concatenating the chunk-local
    // first-appearance lists and keeping each symbol's first sighting
    // reproduces the serial first-appearance order (a symbol credited from
    // warm-up residency necessarily occurred in an earlier chunk), and edge
    // weights add because every event belongs to exactly one chunk. A
    // boundary inside a run of one symbol is harmless: the chunk's first
    // event finds that symbol on top of the warm-started stack, a no-op.
    for (std::size_t k = 0; k < shard_count; ++k) {
      tasks.wait(k);
      for (const Symbol s : shards[k].nodes) graph.note_node(s);
      shards[k].edges.for_each([&](std::uint64_t key, const Weight& w) {
        graph.edges_[key] += w;
      });
      warmup_scanned += shards[k].warmup_scanned_events;
    }
  }

  graph.ensure_adjacency();
  MetricsRegistry& registry = MetricsRegistry::global();
  if (registry.enabled()) {
    registry.counter("trg.build.shards").add(shard_count);
    registry.counter("trg.build.warmup_events").add(warmup_scanned);
  }
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
  // regardless of the accumulator's internal layout (and of shard count).
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::sort(adj_.begin() + adj_offsets_[i],
              adj_.begin() + adj_offsets_[i + 1],
              [](const Neighbor& x, const Neighbor& y) { return x.to < y.to; });
  }
  adjacency_valid_ = true;
}

}  // namespace codelayout
