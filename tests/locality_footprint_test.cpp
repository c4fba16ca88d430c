#include <unordered_set>

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "locality/footprint.hpp"
#include "support/rng.hpp"

namespace codelayout {
namespace {

using testing::make_trace;

/// Brute force: average over all length-w windows of the number of distinct
/// symbols inside.
double brute_fp(const Trace& t, std::size_t w) {
  const auto symbols = t.symbols();
  if (w == 0 || symbols.size() < w) return 0.0;
  double total = 0.0;
  for (std::size_t start = 0; start + w <= symbols.size(); ++start) {
    std::unordered_set<Symbol> distinct;
    for (std::size_t i = start; i < start + w; ++i) {
      distinct.insert(symbols[i]);
    }
    total += static_cast<double>(distinct.size());
  }
  return total / static_cast<double>(symbols.size() - w + 1);
}

TEST(Footprint, TinyHandExample) {
  // Trace a b a: fp(1)=1, fp(2)=2, fp(3)=2.
  const Trace t = make_trace({0, 1, 0});
  const auto fp = FootprintCurve::compute(t);
  EXPECT_DOUBLE_EQ(fp.at(1), 1.0);
  EXPECT_DOUBLE_EQ(fp.at(2), 2.0);
  EXPECT_DOUBLE_EQ(fp.at(3), 2.0);
  EXPECT_DOUBLE_EQ(fp.max_footprint(), 2.0);
}

TEST(Footprint, SingleSymbol) {
  const Trace t = make_trace({7, 7, 7, 7});
  const auto fp = FootprintCurve::compute(t);
  for (int w = 1; w <= 4; ++w) EXPECT_DOUBLE_EQ(fp.at(w), 1.0);
}

TEST(Footprint, EmptyTrace) {
  const Trace t(Trace::Granularity::kBlock);
  const auto fp = FootprintCurve::compute(t);
  EXPECT_EQ(fp.trace_length(), 0u);
  EXPECT_DOUBLE_EQ(fp.at(5), 0.0);
}

class FootprintPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FootprintPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  Trace t(Trace::Granularity::kBlock);
  const auto len = 20 + rng.below(120);
  for (std::uint64_t i = 0; i < len; ++i) {
    t.push_symbol(static_cast<Symbol>(rng.below(12)));
  }
  const auto fp = FootprintCurve::compute(t);
  for (std::size_t w = 1; w <= t.size(); w += 1 + w / 7) {
    ASSERT_NEAR(fp.at(static_cast<double>(w)), brute_fp(t, w), 1e-9)
        << "w=" << w << " len=" << t.size();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FootprintPropertyTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

TEST(Footprint, MonotoneNonDecreasing) {
  Rng rng(77);
  Trace t(Trace::Granularity::kBlock);
  for (int i = 0; i < 5000; ++i) {
    t.push_symbol(static_cast<Symbol>(rng.zipf(100, 1.0)));
  }
  const auto fp = FootprintCurve::compute(t);
  const auto values = fp.values();
  for (std::size_t w = 1; w < values.size(); ++w) {
    ASSERT_GE(values[w] + 1e-9, values[w - 1]) << "w=" << w;
  }
}

TEST(Footprint, InterpolationBetweenIntegers) {
  const Trace t = make_trace({0, 1, 0});
  const auto fp = FootprintCurve::compute(t);
  EXPECT_NEAR(fp.at(1.5), 1.5, 1e-12);
}

TEST(Footprint, FillTimeIsInverseOfAt) {
  Rng rng(88);
  Trace t(Trace::Granularity::kBlock);
  for (int i = 0; i < 2000; ++i) {
    t.push_symbol(static_cast<Symbol>(rng.below(64)));
  }
  const auto fp = FootprintCurve::compute(t);
  for (double c : {1.0, 5.0, 20.0, 50.0}) {
    const double w = fp.fill_time(c);
    EXPECT_NEAR(fp.at(w), c, 0.05) << "c=" << c;
  }
  EXPECT_DOUBLE_EQ(fp.fill_time(0.0), 0.0);
  EXPECT_DOUBLE_EQ(fp.fill_time(1e9),
                   static_cast<double>(fp.trace_length()));
}

TEST(Footprint, DerivativeIsNonNegativeAndDecays) {
  Rng rng(99);
  Trace t(Trace::Granularity::kBlock);
  for (int i = 0; i < 5000; ++i) {
    t.push_symbol(static_cast<Symbol>(rng.zipf(50, 0.9)));
  }
  const auto fp = FootprintCurve::compute(t);
  const double early = fp.derivative(2);
  const double late = fp.derivative(3000);
  EXPECT_GE(early, 0.0);
  EXPECT_GE(late, 0.0);
  EXPECT_GT(early, late);  // concave curve: slope decays
}

}  // namespace
}  // namespace codelayout
