// LRU stack processing over symbol traces (paper Sec. II-F "Stack
// Processing").
//
// The paper implements the stack as a linked list with a hash table for O(1)
// lookup, after the Linux-kernel page-management idiom. Symbols here are
// dense, so the hash table degenerates into flat position arrays — the same
// asymptotics with better constants. The stack supports the two access
// patterns the analyses need: the affinity model reads the top-w entries at
// every access, and the TRG model enumerates exactly the entries above the
// accessed symbol (the blocks seen since its previous occurrence), optionally
// capped by a total-footprint budget in bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/check.hpp"
#include "trace/trace.hpp"

namespace codelayout {

class LruStack {
 public:
  /// `symbol_space` bounds the symbol values; `weight[s]` is the footprint
  /// weight (e.g. code bytes) of symbol s, defaulting to 1 per symbol.
  explicit LruStack(Symbol symbol_space,
                    std::span<const std::uint32_t> weights = {});

  /// Moves `s` to the top. Returns true when `s` was already resident.
  bool touch(Symbol s);

  /// Calls `fn(symbol)` for the top `k` resident symbols, topmost first
  /// (including the current top).
  template <typename Fn>
  void for_top(std::size_t k, Fn&& fn) const {
    Symbol cur = head_;
    for (std::size_t i = 0; i < k && cur != kNil; ++i, cur = next_[cur]) {
      fn(cur);
    }
  }

  /// Calls `fn(symbol)` for every resident symbol strictly above `s`
  /// (i.e. accessed since s's last occurrence). `s` must be resident.
  /// Stops early if `fn` returns false.
  template <typename Fn>
  void for_above(Symbol s, Fn&& fn) const {
    CL_DCHECK(resident(s));
    for (Symbol cur = head_; cur != kNil && cur != s; cur = next_[cur]) {
      if (!fn(cur)) return;
    }
  }

  /// Evicts from the bottom until the total resident weight is <= cap.
  void evict_to_weight(std::uint64_t cap);

  [[nodiscard]] bool resident(Symbol s) const {
    CL_DCHECK(s < present_.size());
    return present_[s] != 0;
  }
  [[nodiscard]] std::size_t resident_count() const { return count_; }
  [[nodiscard]] std::uint64_t resident_weight() const { return weight_sum_; }
  [[nodiscard]] Symbol top() const { return head_; }

  /// Number of distinct symbols above `s` (0 when s is on top); `s` must be
  /// resident. O(depth).
  [[nodiscard]] std::size_t depth_of(Symbol s) const;

  /// The resident symbols, topmost first — a portable snapshot of the stack
  /// state. restore(snapshot()) reproduces the exact state.
  [[nodiscard]] std::vector<Symbol> snapshot() const;

  /// Resets the stack to exactly `top_to_bottom` (topmost first, distinct
  /// symbols). No eviction is applied; the caller is responsible for the
  /// weight budget. Used by the sharded TRG build to warm-start a worker at a
  /// chunk boundary: the capped stack's state at any trace position is the
  /// maximal weight-<=cap prefix of the last-occurrence (recency) order of
  /// the preceding events, which a backward scan can reconstruct without
  /// replaying the prefix.
  void restore(std::span<const Symbol> top_to_bottom);

  void clear();

 private:
  static constexpr Symbol kNil = ~Symbol{0};

  void unlink(Symbol s);
  void push_front(Symbol s);

  std::vector<Symbol> next_;
  std::vector<Symbol> prev_;
  std::vector<std::uint8_t> present_;
  std::vector<std::uint32_t> weights_;
  Symbol head_ = kNil;
  Symbol tail_ = kNil;
  std::size_t count_ = 0;
  std::uint64_t weight_sum_ = 0;
};

/// Replays the whole trace through `stack` and returns the number of touches
/// that found their symbol resident.
std::uint64_t replay_lru_hits(const Trace& trace, LruStack& stack);

}  // namespace codelayout
