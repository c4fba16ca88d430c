#include "layout/layout.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace codelayout {

CodeLayout::CodeLayout(const Module& module, std::vector<BlockId> block_order,
                       bool with_entry_stubs)
    : order_(std::move(block_order)) {
  CL_CHECK_MSG(order_.size() == module.block_count(),
               "layout covers " << order_.size() << " of "
                                << module.block_count() << " blocks");
  placements_.resize(module.block_count());

  // Position of each block in the new order, for adjacency tests.
  std::vector<std::uint32_t> position(module.block_count());
  for (std::uint32_t i = 0; i < order_.size(); ++i) {
    CL_CHECK_MSG(order_[i].valid() && order_[i].index() < module.block_count(),
                 "bad block in layout order");
    position[order_[i].index()] = i;
  }

  std::uint64_t address = 0;
  for (std::uint32_t i = 0; i < order_.size(); ++i) {
    const BasicBlock& b = module.block(order_[i]);
    std::uint32_t bytes = b.size_bytes;
    if (with_entry_stubs && module.function(b.parent).entry == b.id) {
      // Entry trampoline: callers reach the relocated body via one jump.
      bytes += kJumpBytes;
      overhead_ += kJumpBytes;
    }
    if (b.has_fallthrough) {
      const BlockId fall = b.successors.front().target;
      const bool adjacent =
          i + 1 < order_.size() && order_[i + 1] == fall;
      if (!adjacent) {
        // Pre-processing appends an explicit jump to reach the fall-through
        // block wherever it moved (Sec. II-E).
        bytes += kJumpBytes;
        overhead_ += kJumpBytes;
        ++fixups_;
      }
    }
    placements_[order_[i].index()] = Placement{address, bytes};
    address += bytes;
  }
  total_bytes_ = address;
}

CodeLayout CodeLayout::from_addresses(
    const Module& module,
    std::vector<std::pair<BlockId, std::uint64_t>> placed,
    bool with_entry_stubs) {
  CL_CHECK_MSG(placed.size() == module.block_count(),
               "placement covers " << placed.size() << " of "
                                   << module.block_count() << " blocks");
  std::sort(placed.begin(), placed.end(),
            [](const auto& x, const auto& y) { return x.second < y.second; });

  CodeLayout layout;
  layout.placements_.resize(module.block_count());
  layout.order_.reserve(placed.size());

  // First pass: addresses and block order.
  std::vector<std::uint64_t> start(module.block_count());
  for (const auto& [id, addr] : placed) {
    CL_CHECK(id.valid() && id.index() < module.block_count());
    start[id.index()] = addr;
    layout.order_.push_back(id);
  }

  // Second pass: effective sizes (stubs + fix-ups) and overlap checks.
  std::uint64_t prev_end = 0;
  for (const auto& [id, addr] : placed) {
    const BasicBlock& b = module.block(id);
    std::uint32_t bytes = b.size_bytes;
    if (with_entry_stubs && module.function(b.parent).entry == b.id) {
      bytes += kJumpBytes;
      layout.overhead_ += kJumpBytes;
    }
    if (b.has_fallthrough) {
      const BlockId fall = b.successors.front().target;
      if (start[fall.index()] != addr + bytes) {
        bytes += kJumpBytes;
        layout.overhead_ += kJumpBytes;
        ++layout.fixups_;
      }
    }
    CL_CHECK_MSG(addr >= prev_end, "blocks overlap at address " << addr);
    layout.placements_[id.index()] = Placement{addr, bytes};
    prev_end = addr + bytes;
  }
  layout.total_bytes_ = prev_end;
  return layout;
}

const CodeLayout::Placement& CodeLayout::placement(BlockId b) const {
  CL_CHECK(b.valid() && b.index() < placements_.size());
  return placements_[b.index()];
}

CodeLayout::LineSpan CodeLayout::lines_of(BlockId b,
                                          std::uint32_t line_bytes) const {
  CL_DCHECK(line_bytes > 0);
  const Placement& p = placement(b);
  const std::uint64_t first = p.address / line_bytes;
  const std::uint64_t last = (p.address + p.bytes - 1) / line_bytes;
  return LineSpan{first, static_cast<std::uint32_t>(last - first + 1)};
}

std::string CodeLayout::describe(const Module& module,
                                 std::size_t max_blocks) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < order_.size() && i < max_blocks; ++i) {
    const BasicBlock& b = module.block(order_[i]);
    const Placement& p = placements_[order_[i].index()];
    os << "  0x" << std::hex << p.address << std::dec << "  " << b.label
       << " (" << p.bytes << "B)\n";
  }
  if (order_.size() > max_blocks) {
    os << "  ... " << (order_.size() - max_blocks) << " more blocks\n";
  }
  return os.str();
}

namespace {

/// Expands a function order to a block order (source order inside each
/// function); unlisted functions follow in program order.
std::vector<BlockId> blocks_from_function_order(
    const Module& module, std::span<const Symbol> function_order) {
  std::vector<BlockId> order;
  order.reserve(module.block_count());
  std::vector<bool> seen(module.function_count(), false);
  auto emit = [&](FuncId f) {
    seen[f.index()] = true;
    for (BlockId b : module.function(f).blocks) order.push_back(b);
  };
  for (Symbol s : function_order) {
    CL_CHECK_MSG(s < module.function_count(),
                 "function symbol " << s << " out of range");
    if (!seen[s]) emit(FuncId(s));
  }
  for (const Function& f : module.functions()) {
    if (!seen[f.id.index()]) emit(f.id);
  }
  return order;
}

}  // namespace

CodeLayout original_layout(const Module& module) {
  std::vector<BlockId> order;
  order.reserve(module.block_count());
  for (const Function& f : module.functions()) {
    for (BlockId b : f.blocks) order.push_back(b);
  }
  return CodeLayout(module, std::move(order), /*with_entry_stubs=*/false);
}

CodeLayout function_reordering(const Module& module,
                               std::span<const Symbol> function_order) {
  return CodeLayout(module, blocks_from_function_order(module, function_order),
                    /*with_entry_stubs=*/false);
}

CodeLayout bb_reordering(const Module& module,
                         std::span<const Symbol> block_order) {
  // Deduplicate and index the model's sequence.
  constexpr std::size_t kUnlisted = ~std::size_t{0};
  std::vector<Symbol> sequence;
  std::vector<std::size_t> position(module.block_count(), kUnlisted);
  for (Symbol s : block_order) {
    CL_CHECK_MSG(s < module.block_count(), "block symbol " << s
                                                           << " out of range");
    if (position[s] == kUnlisted) {
      position[s] = sequence.size();
      sequence.push_back(s);
    }
  }

  // Emit in model order, but chain a block's fall-through successor when the
  // model itself placed it almost adjacently — post-processing cleanup that
  // avoids a jump fix-up without overriding the model: an affinity-driven
  // split (Fig. 3) puts the halves far apart in the sequence and is left
  // untouched.
  constexpr std::size_t kChainWindow = 2;
  std::vector<BlockId> order;
  order.reserve(module.block_count());
  std::vector<bool> seen(module.block_count(), false);
  for (Symbol s : sequence) {
    if (seen[s]) continue;
    seen[s] = true;
    order.push_back(BlockId(s));
    for (;;) {
      const BasicBlock& b = module.block(BlockId(s));
      if (!b.has_fallthrough) break;
      const Symbol next = b.successors.front().target.value;
      if (position[next] == kUnlisted || seen[next]) break;
      const std::size_t d = position[next] > position[s]
                                ? position[next] - position[s]
                                : position[s] - position[next];
      if (d > kChainWindow) break;
      seen[next] = true;
      order.push_back(BlockId(next));
      s = next;
    }
  }
  // Cold blocks keep their source grouping after the hot section.
  for (const Function& f : module.functions()) {
    for (BlockId b : f.blocks) {
      if (!seen[b.index()]) order.push_back(b);
    }
  }
  return CodeLayout(module, std::move(order), /*with_entry_stubs=*/true);
}

CodeLayout random_layout(const Module& module, std::uint64_t seed) {
  Rng rng(hash_combine(seed, 0x6c61796f7574ULL));
  std::vector<BlockId> order;
  order.reserve(module.block_count());
  for (const Function& f : module.functions()) {
    for (BlockId b : f.blocks) order.push_back(b);
  }
  rng.shuffle(order);
  return CodeLayout(module, std::move(order), /*with_entry_stubs=*/true);
}

}  // namespace codelayout
