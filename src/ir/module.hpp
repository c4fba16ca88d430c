// The program model: a Module of Functions made of BasicBlocks.
//
// This is the substrate that stands in for LLVM IR. A block carries a byte
// size, probabilistic control-flow successors, and an ordered list of call
// sites. The model is rich enough for (a) a deterministic interpreter to
// produce dynamic block/function traces and (b) the layout transformations to
// assign addresses and account for added trampolines and jump fix-ups.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ir/ids.hpp"

namespace codelayout {

/// Architectural constants of the modeled ISA.
inline constexpr std::uint32_t kInstrBytes = 4;   // fixed-width instructions
inline constexpr std::uint32_t kJumpBytes = 4;    // one unconditional jump

/// A probabilistic control-flow edge out of a block.
struct CfgEdge {
  BlockId target;       ///< successor block (same function)
  double probability;   ///< taken with this probability; edges sum to 1
};

/// A call site inside a block, executed (in order) each time the block runs.
struct CallSite {
  FuncId callee;
  double probability = 1.0;  ///< conditional call when < 1
};

/// A basic block: straight-line code of `size_bytes`, then calls, then the
/// terminator (the CFG edges). A block with no successors returns.
struct BasicBlock {
  BlockId id;
  FuncId parent;
  std::uint32_t size_bytes = 0;
  std::vector<CfgEdge> successors;
  std::vector<CallSite> calls;
  std::string label;

  /// In the source layout, successors[0] is the fall-through successor when
  /// `has_fallthrough` — it reaches the next block without an explicit jump.
  bool has_fallthrough = false;

  [[nodiscard]] std::uint32_t instructions() const {
    return size_bytes / kInstrBytes;
  }
  [[nodiscard]] bool is_return() const { return successors.empty(); }
};

/// A function: a contiguous group of blocks with a designated entry.
struct Function {
  FuncId id;
  std::string name;
  BlockId entry;
  std::vector<BlockId> blocks;  ///< source order; entry is blocks.front()

  [[nodiscard]] std::size_t block_count() const { return blocks.size(); }
};

/// A whole program. Blocks and functions are stored densely; ids index them.
class Module {
 public:
  Module() = default;
  explicit Module(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] std::size_t function_count() const { return functions_.size(); }
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }

  [[nodiscard]] const Function& function(FuncId id) const;
  [[nodiscard]] const BasicBlock& block(BlockId id) const;
  [[nodiscard]] Function& function(FuncId id);
  [[nodiscard]] BasicBlock& block(BlockId id);

  [[nodiscard]] std::span<const Function> functions() const {
    return functions_;
  }
  [[nodiscard]] std::span<const BasicBlock> blocks() const { return blocks_; }

  /// The designated program entry function ("main").
  [[nodiscard]] FuncId entry_function() const { return entry_; }
  void set_entry_function(FuncId f);

  /// Looks a function up by name; nullopt when absent.
  [[nodiscard]] std::optional<FuncId> find_function(std::string_view name) const;

  /// Total static code size in bytes (blocks only, no layout overhead).
  [[nodiscard]] std::uint64_t static_bytes() const;

  /// Appends an empty function; returns its id.
  FuncId add_function(std::string name);

  /// Appends a block to `parent`; the first block becomes the entry.
  BlockId add_block(FuncId parent, std::uint32_t size_bytes,
                    std::string label = {});

  /// Adds a CFG edge `from -> to` taken with `probability`.
  void add_edge(BlockId from, BlockId to, double probability,
                bool fallthrough = false);

  /// Adds a call site to `from` invoking `callee` with `probability`.
  void add_call(BlockId from, FuncId callee, double probability = 1.0);

  /// Verifies structural invariants; throws ContractError with a description
  /// of the first violation. Checks: entry set and valid, edge targets stay
  /// within the parent function, probabilities in (0,1] summing to ~1 per
  /// block, call targets valid, non-zero block sizes, labels unique enough.
  void validate() const;

  /// GraphViz dump of the CFG + call graph (debugging aid).
  [[nodiscard]] std::string to_dot() const;

 private:
  std::string name_;
  std::vector<Function> functions_;
  std::vector<BasicBlock> blocks_;
  FuncId entry_;
};

}  // namespace codelayout
