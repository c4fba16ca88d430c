#include <algorithm>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "locality/lru_stack.hpp"
#include "support/rng.hpp"

namespace codelayout {
namespace {

/// The stack, most recent first, read through for_above of `bottom`, its
/// least recently touched resident symbol.
std::vector<Symbol> order_above(const LruStack& stack, Symbol bottom) {
  std::vector<Symbol> out;
  stack.for_above(bottom, [&](Symbol s) {
    out.push_back(s);
    return true;
  });
  out.push_back(bottom);
  return out;
}

TEST(LruStack, TouchReportsResidency) {
  LruStack s(8);
  EXPECT_FALSE(s.touch(3));
  EXPECT_TRUE(s.touch(3));
  EXPECT_TRUE(s.resident(3));
  EXPECT_FALSE(s.resident(4));
}

TEST(LruStack, RecencyOrder) {
  LruStack s(8);
  s.touch(1);
  s.touch(2);
  s.touch(3);
  EXPECT_EQ(order_above(s, 1), (std::vector<Symbol>{3, 2, 1}));
  s.touch(1);  // move to front
  EXPECT_EQ(order_above(s, 2), (std::vector<Symbol>{1, 3, 2}));
}

TEST(LruStack, ForAboveEnumeratesSinceLastOccurrence) {
  LruStack s(8);
  s.touch(1);
  s.touch(2);
  s.touch(3);
  std::vector<Symbol> above;
  s.for_above(1, [&](Symbol x) {
    above.push_back(x);
    return true;
  });
  EXPECT_EQ(above, (std::vector<Symbol>{3, 2}));
}

TEST(LruStack, ForAboveEarlyStop) {
  LruStack s(8);
  s.touch(1);
  s.touch(2);
  s.touch(3);
  std::vector<Symbol> above;
  s.for_above(1, [&](Symbol x) {
    above.push_back(x);
    return false;  // stop immediately
  });
  EXPECT_EQ(above.size(), 1u);
}

TEST(LruStack, CountCapEvictsFromTheBottom) {
  LruStack s(16);
  for (Symbol i = 0; i < 10; ++i) s.touch(i);
  s.evict_to_count(10);  // at the cap: nothing goes
  EXPECT_EQ(order_above(s, 0),
            (std::vector<Symbol>{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}));
  s.evict_to_count(4);
  EXPECT_FALSE(s.resident(5));
  EXPECT_EQ(order_above(s, 6), (std::vector<Symbol>{9, 8, 7, 6}));
  s.evict_to_count(0);
  for (Symbol i = 0; i < 16; ++i) EXPECT_FALSE(s.resident(i)) << i;
  s.touch(3);  // usable again once empty
  s.touch(5);
  EXPECT_EQ(order_above(s, 3), (std::vector<Symbol>{5, 3}));
}

/// Property: against a reference deque model over random traces.
class LruStackPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruStackPropertyTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  constexpr Symbol kSpace = 32;
  LruStack stack(kSpace);
  std::deque<Symbol> model;  // front = MRU

  for (int step = 0; step < 2000; ++step) {
    const auto s = static_cast<Symbol>(rng.below(kSpace));
    const bool was_resident = stack.touch(s);
    const auto it = std::find(model.begin(), model.end(), s);
    EXPECT_EQ(was_resident, it != model.end());
    if (it != model.end()) model.erase(it);
    model.push_front(s);
    if (rng.chance(0.05)) {
      const std::uint64_t cap = 1 + rng.below(kSpace);
      stack.evict_to_count(cap);
      while (model.size() > cap) model.pop_back();
    }
    ASSERT_EQ(order_above(stack, model.back()),
              std::vector<Symbol>(model.begin(), model.end()));
    for (Symbol x = 0; x < kSpace; ++x) {
      ASSERT_EQ(stack.resident(x),
                std::find(model.begin(), model.end(), x) != model.end())
          << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruStackPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace codelayout
