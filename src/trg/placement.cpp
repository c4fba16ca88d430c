#include "trg/placement.hpp"

#include <algorithm>
#include <vector>

#include "support/check.hpp"
#include "trg/reduction.hpp"

namespace codelayout {

PlacementResult gloy_smith_placement(const Module& module, const Trg& graph,
                                     const PlacementConfig& config) {
  CL_CHECK(config.line_bytes > 0 && config.associativity > 0);
  const std::uint64_t sets =
      config.cache_bytes / config.line_bytes / config.associativity;
  CL_CHECK_MSG(sets > 0, "degenerate cache geometry");
  const std::uint64_t way_span = sets * config.line_bytes;
  for (const Symbol s : graph.nodes()) {
    CL_CHECK_MSG(s < module.block_count(), "block symbol " << s
                                                           << " out of range");
  }

  // Bytes a block needs, including headroom for the fix-up jump and entry
  // trampoline from_addresses may charge.
  auto reserved_bytes = [&](const BasicBlock& b) -> std::uint32_t {
    std::uint32_t bytes = b.size_bytes;
    if (b.has_fallthrough) bytes += kJumpBytes;
    if (module.function(b.parent).entry == b.id) bytes += kJumpBytes;
    return bytes;
  };

  // --- Alignment pass: desired start set per hot block --------------------
  // Heaviest-edge-first; the first endpoint of the first edge anchors at
  // set 0, every later unplaced endpoint picks the start set with the
  // least weighted line-range overlap against its placed neighbors.
  constexpr std::uint64_t kUnaligned = ~std::uint64_t{0};
  std::vector<std::uint64_t> chosen_set(module.block_count(), kUnaligned);
  auto lines_of = [&](Symbol s) {
    const BasicBlock& b = module.block(BlockId(s));
    return (reserved_bytes(b) + config.line_bytes - 1) / config.line_bytes;
  };
  auto choose = [&](Symbol s) {
    if (chosen_set[s] != kUnaligned) return;
    std::vector<double> pressure(sets, 0.0);
    bool any_neighbor = false;
    for (const auto& [nb, w] : graph.neighbors(s)) {
      if (chosen_set[nb] == kUnaligned) continue;
      any_neighbor = true;
      const std::uint64_t span = lines_of(nb);
      for (std::uint64_t k = 0; k < span && k < sets; ++k) {
        pressure[(chosen_set[nb] + k) % sets] += static_cast<double>(w);
      }
    }
    if (!any_neighbor) {
      chosen_set[s] = 0;
      return;
    }
    const std::uint64_t my_span = std::min<std::uint64_t>(lines_of(s), sets);
    std::uint64_t best = 0;
    double best_cost = -1.0;
    for (std::uint64_t cand = 0; cand < sets; ++cand) {
      double cost = 0.0;
      for (std::uint64_t k = 0; k < my_span; ++k) {
        cost += pressure[(cand + k) % sets];
      }
      if (best_cost < 0.0 || cost < best_cost) {
        best_cost = cost;
        best = cand;
      }
    }
    chosen_set[s] = best;
  };
  for (const Trg::Edge& e : graph.edges_by_weight()) {
    choose(e.a);
    choose(e.b);
  }

  // --- Layout pass: reduction order, padded to the chosen alignment -------
  const std::vector<Symbol> order =
      reduce_trg(graph, static_cast<std::uint32_t>(sets)).order;
  std::vector<std::pair<BlockId, std::uint64_t>> placed;
  placed.reserve(module.block_count());
  std::uint64_t cursor = 0;
  std::uint64_t padding = 0;

  std::vector<bool> done(module.block_count(), false);
  auto emit_at = [&](BlockId id, std::uint64_t addr) {
    placed.emplace_back(id, addr);
    done[id.index()] = true;
  };
  for (Symbol s : order) {
    const BlockId id(s);
    if (done[id.index()]) continue;
    if (chosen_set[s] != kUnaligned) {
      const std::uint64_t want = chosen_set[s] * config.line_bytes;
      const std::uint64_t offset = cursor % way_span;
      const std::uint64_t pad =
          offset <= want ? want - offset : way_span - offset + want;
      padding += pad;
      cursor += pad;
    }
    emit_at(id, cursor);
    cursor += reserved_bytes(module.block(id));
  }
  // Cold blocks fill in afterwards, unaligned (they are never fetched, so
  // they take no padding; a production system would pour them into the
  // alignment gaps).
  for (const Function& f : module.functions()) {
    for (BlockId b : f.blocks) {
      if (done[b.index()]) continue;
      emit_at(b, cursor);
      cursor += reserved_bytes(module.block(b));
    }
  }

  return PlacementResult{
      .layout = CodeLayout::from_addresses(module, std::move(placed),
                                           /*with_entry_stubs=*/true),
      .padding_bytes = padding};
}

}  // namespace codelayout
