// LRU stack processing over symbol traces (paper Sec. II-F "Stack
// Processing").
//
// The paper implements the stack as a linked list with a hash table for O(1)
// lookup, after the Linux-kernel page-management idiom. Symbols here are
// dense, so the hash table degenerates into flat position arrays — the same
// asymptotics with better constants. The TRG model reads the stack: it
// enumerates exactly the entries above the accessed symbol (the blocks seen
// since its previous occurrence), with the stack capped at a number of
// entries.
#pragma once

#include <cstdint>
#include <vector>

#include "support/check.hpp"
#include "trace/trace.hpp"

namespace codelayout {

class LruStack {
 public:
  /// `symbol_space` bounds the symbol values.
  explicit LruStack(Symbol symbol_space);

  /// Moves `s` to the top. Returns true when `s` was already resident.
  bool touch(Symbol s);

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

  /// Evicts from the bottom until at most `cap` symbols are resident.
  void evict_to_count(std::size_t cap);

  [[nodiscard]] bool resident(Symbol s) const {
    CL_DCHECK(s < present_.size());
    return present_[s] != 0;
  }

 private:
  static constexpr Symbol kNil = ~Symbol{0};

  void unlink(Symbol s);
  void push_front(Symbol s);

  std::vector<Symbol> next_;
  std::vector<Symbol> prev_;
  std::vector<std::uint8_t> present_;
  Symbol head_ = kNil;
  Symbol tail_ = kNil;
  std::size_t count_ = 0;
};

/// Replays the whole trace through `stack` and returns the number of touches
/// that found their symbol resident.
std::uint64_t replay_lru_hits(const Trace& trace, LruStack& stack);

}  // namespace codelayout
