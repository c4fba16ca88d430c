#include "locality/lru_stack.hpp"

namespace codelayout {

LruStack::LruStack(Symbol symbol_space)
    : next_(symbol_space, kNil),
      prev_(symbol_space, kNil),
      present_(symbol_space, 0) {}

bool LruStack::touch(Symbol s) {
  CL_DCHECK(s < present_.size());
  const bool was_resident = present_[s] != 0;
  if (was_resident) {
    if (head_ == s) return true;
    unlink(s);
  } else {
    present_[s] = 1;
    ++count_;
  }
  push_front(s);
  return was_resident;
}

void LruStack::evict_to_count(std::size_t cap) {
  while (count_ > cap) {
    const Symbol victim = tail_;
    unlink(victim);
    present_[victim] = 0;
    --count_;
  }
}

std::size_t LruStack::depth_of(Symbol s) const {
  CL_CHECK(resident(s));
  std::size_t depth = 0;
  for (Symbol cur = head_; cur != s; cur = next_[cur]) ++depth;
  return depth;
}

void LruStack::unlink(Symbol s) {
  const Symbol p = prev_[s];
  const Symbol n = next_[s];
  if (p != kNil) next_[p] = n; else head_ = n;
  if (n != kNil) prev_[n] = p; else tail_ = p;
  prev_[s] = next_[s] = kNil;
}

void LruStack::push_front(Symbol s) {
  prev_[s] = kNil;
  next_[s] = head_;
  if (head_ != kNil) prev_[head_] = s;
  head_ = s;
  if (tail_ == kNil) tail_ = s;
}

std::uint64_t replay_lru_hits(const Trace& trace, LruStack& stack) {
  std::uint64_t hits = 0;
  for (const Symbol s : trace.symbols()) hits += stack.touch(s) ? 1 : 0;
  return hits;
}

}  // namespace codelayout
