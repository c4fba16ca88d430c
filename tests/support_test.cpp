#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "support/check.hpp"
#include "support/format.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace codelayout {
namespace {

// ---------- CL_CHECK -------------------------------------------------------

TEST(Check, PassingCheckDoesNothing) { CL_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsContractError) {
  EXPECT_THROW(CL_CHECK(false), ContractError);
}

TEST(Check, MessageIsIncluded) {
  try {
    CL_CHECK_MSG(false, "value was " << 42);
    FAIL() << "expected throw";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

// ---------- Rng ------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  Rng parent(7);
  const Rng child1 = parent.fork(5);
  // Forking does not consume parent state.
  Rng parent2(7);
  const Rng child2 = parent2.fork(5);
  Rng c1 = child1, c2 = child2;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c1.next(), c2.next());
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(99);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(42);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMeanApproximates) {
  Rng rng(23);
  // back-edge probability p gives mean p/(1-p) iterations.
  const double p = 0.9;
  double total = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(rng.geometric(p, 100000));
  }
  EXPECT_NEAR(total / n, p / (1 - p), 0.5);
}

TEST(Rng, GeometricRespectsCap) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) EXPECT_LE(rng.geometric(0.999, 5), 5u);
}

TEST(Rng, WeightedRespectsWeights) {
  Rng rng(31);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / double(counts[0]), 3.0, 0.4);
}

TEST(Rng, WeightedRejectsAllZero) {
  Rng rng(1);
  const std::vector<double> weights = {0.0, 0.0};
  EXPECT_THROW(rng.weighted(weights), ContractError);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(37);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.zipf(10, 1.2)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(Rng, ZipfZeroExponentIsUniformish) {
  Rng rng(41);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.zipf(4, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 200);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(43);
  const auto p = rng.permutation(50);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(47);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Hash, SplitmixAdvancesState) {
  std::uint64_t s = 1;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(Hash, CombineIsOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

// ---------- RunningStats ----------------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all, a, b;
  Rng rng(53);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform() * 10;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

// ---------- free-function stats ---------------------------------------------

TEST(Stats, MeanAndGeomean) {
  const std::vector<double> xs = {1.0, 2.0, 4.0};
  EXPECT_NEAR(mean_of(xs), 7.0 / 3, 1e-12);
  EXPECT_NEAR(geomean_of(xs), 2.0, 1e-12);
  EXPECT_EQ(mean_of({}), 0.0);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const std::vector<double> xs = {1.0, 0.0};
  EXPECT_THROW(geomean_of(xs), ContractError);
}

TEST(Stats, Percentile) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 25), 2.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);
  h.add(9.9);
  h.add(-3.0);   // clamps to first bin
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_low(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_high(1), 4.0);
}

TEST(Histogram, QuantileInterpolates) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(i % 10 + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
  EXPECT_NEAR(h.quantile(1.0), 10.0, 1.0);
}

// ---------- format -----------------------------------------------------------

TEST(Format, Percent) {
  EXPECT_EQ(fmt_pct(0.1234), "12.34%");
  EXPECT_EQ(fmt_pct(0.1234, 1), "12.3%");
  EXPECT_EQ(fmt_signed_pct(0.042), "+4.20%");
  EXPECT_EQ(fmt_signed_pct(-0.011), "-1.10%");
}

TEST(Format, Bytes) {
  EXPECT_EQ(fmt_bytes(512), "512");
  EXPECT_EQ(fmt_bytes(86'900), "84.86K");
  EXPECT_EQ(fmt_bytes(2 * 1024 * 1024), "2.00M");
}

TEST(Format, Count) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1937320), "1,937,320");
}

TEST(Format, TableRendersAllCells) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Format, TableRejectsRaggedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), ContractError);
}

TEST(Format, AsciiBarsHandleNegativeAndZero) {
  const std::string out =
      ascii_bars({{"up", 2.0}, {"down", -1.0}, {"zero", 0.0}}, 10);
  EXPECT_NE(out.find("up"), std::string::npos);
  EXPECT_NE(out.find('-'), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
}

// ---------- JsonWriter -----------------------------------------------------

TEST(JsonWriter, FlatObject) {
  JsonWriter w;
  w.field("a", std::uint64_t{1}).field("b", "two").field("c", true);
  EXPECT_EQ(w.finish(), R"({"a":1,"b":"two","c":true})");
}

TEST(JsonWriter, NestedObjectsAndArrays) {
  JsonWriter w;
  w.field("name", "root");
  w.begin_array("items");
  w.begin_object().field("id", std::uint64_t{1}).end_object();
  w.begin_object().field("id", std::uint64_t{2}).end_object();
  w.end_array();
  w.begin_object("meta").field("ok", true).end_object();
  EXPECT_EQ(w.finish(),
            R"({"name":"root","items":[{"id":1},{"id":2}],)"
            R"("meta":{"ok":true}})");
}

TEST(JsonWriter, ScalarArrayElements) {
  JsonWriter w;
  w.begin_array("xs");
  w.value(std::uint64_t{7}).value("mid").value(1.5);
  w.end_array();
  EXPECT_EQ(w.finish(), R"({"xs":[7,"mid",1.5]})");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndNamedControls) {
  JsonWriter w;
  w.field("k", "a\"b\\c\nd\te\rf\bg\fh");
  EXPECT_EQ(w.finish(), "{\"k\":\"a\\\"b\\\\c\\nd\\te\\rf\\bg\\fh\"}");
}

TEST(JsonWriter, EscapesRawControlBytesAsUnicode) {
  JsonWriter w;
  w.field("k", std::string_view("\x01\x1f", 2));
  EXPECT_EQ(w.finish(), "{\"k\":\"\\u0001\\u001f\"}");
}

TEST(JsonWriter, EscapedKeysToo) {
  JsonWriter w;
  w.field("we\"ird\n", std::uint64_t{1});
  EXPECT_EQ(w.finish(), "{\"we\\\"ird\\n\":1}");
}

TEST(JsonWriter, FinishClosesAllOpenContainers) {
  JsonWriter w;
  w.begin_object("a");
  w.begin_array("b");
  w.begin_object().field("deep", true);
  EXPECT_EQ(w.finish(), R"({"a":{"b":[{"deep":true}]}})");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w;
  w.begin_array("empty_array").end_array();
  w.begin_object("empty_object").end_object();
  EXPECT_EQ(w.finish(), R"({"empty_array":[],"empty_object":{}})");
}

}  // namespace
}  // namespace codelayout
