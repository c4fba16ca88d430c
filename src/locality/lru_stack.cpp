#include "locality/lru_stack.hpp"

namespace codelayout {

LruStack::LruStack(Symbol symbol_space, std::span<const std::uint32_t> weights)
    : next_(symbol_space, kNil),
      prev_(symbol_space, kNil),
      present_(symbol_space, 0),
      weights_(symbol_space, 1) {
  if (!weights.empty()) {
    CL_CHECK_MSG(weights.size() == symbol_space,
                 "weights size " << weights.size() << " != symbol space "
                                 << symbol_space);
    weights_.assign(weights.begin(), weights.end());
  }
}

bool LruStack::touch(Symbol s) {
  CL_DCHECK(s < present_.size());
  const bool was_resident = present_[s] != 0;
  if (was_resident) {
    if (head_ == s) return true;
    unlink(s);
  } else {
    present_[s] = 1;
    ++count_;
    weight_sum_ += weights_[s];
  }
  push_front(s);
  return was_resident;
}

void LruStack::evict_to_weight(std::uint64_t cap) {
  while (weight_sum_ > cap && tail_ != kNil) {
    const Symbol victim = tail_;
    unlink(victim);
    present_[victim] = 0;
    --count_;
    weight_sum_ -= weights_[victim];
  }
}

std::size_t LruStack::depth_of(Symbol s) const {
  CL_CHECK(resident(s));
  std::size_t depth = 0;
  for (Symbol cur = head_; cur != s; cur = next_[cur]) ++depth;
  return depth;
}

std::vector<Symbol> LruStack::snapshot() const {
  std::vector<Symbol> out;
  out.reserve(count_);
  for (Symbol cur = head_; cur != kNil; cur = next_[cur]) out.push_back(cur);
  return out;
}

void LruStack::restore(std::span<const Symbol> top_to_bottom) {
  clear();
  for (std::size_t i = top_to_bottom.size(); i-- > 0;) {
    const Symbol s = top_to_bottom[i];
    CL_DCHECK(!resident(s));
    touch(s);
  }
}

void LruStack::clear() {
  for (Symbol cur = head_; cur != kNil;) {
    const Symbol nxt = next_[cur];
    next_[cur] = prev_[cur] = kNil;
    present_[cur] = 0;
    cur = nxt;
  }
  head_ = tail_ = kNil;
  count_ = 0;
  weight_sum_ = 0;
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
