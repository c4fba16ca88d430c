#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "locality/footprint.hpp"
#include "locality/missmodel.hpp"
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

// ---- The dense curve as the oracle ------------------------------------------

/// The dense curve: fp(w) stored for every w = 0..n, assembled by one
/// descending pass over a dense gap histogram, with the read-outs written
/// over that array. FootprintCurve keeps only the nonzero gap masses and
/// every 64th state of the pass, and must agree with it bit for bit.
struct DenseCurve {
  std::vector<double> fp;  ///< fp[w], w = 0..n

  [[nodiscard]] std::size_t trace_length() const { return fp.size() - 1; }
  [[nodiscard]] double max_footprint() const { return fp.back(); }

  [[nodiscard]] double at(double w) const {
    const double n = static_cast<double>(trace_length());
    if (w <= 0.0) return 0.0;
    if (w >= n) return fp.back();
    const auto lo = static_cast<std::size_t>(w);
    const double frac = w - static_cast<double>(lo);
    return fp[lo] * (1.0 - frac) + fp[lo + 1] * frac;
  }

  [[nodiscard]] double fill_time(double capacity) const {
    if (capacity <= 0.0) return 0.0;
    if (capacity >= fp.back()) return static_cast<double>(trace_length());
    const auto it = std::lower_bound(fp.begin(), fp.end(), capacity);
    const auto w_hi = static_cast<std::size_t>(it - fp.begin());
    if (w_hi == 0) return 0.0;
    const double lo_v = fp[w_hi - 1];
    const double hi_v = fp[w_hi];
    const double frac = hi_v > lo_v ? (capacity - lo_v) / (hi_v - lo_v) : 0.0;
    return static_cast<double>(w_hi - 1) + frac;
  }

  [[nodiscard]] double derivative(double w) const {
    const double n = static_cast<double>(trace_length());
    if (n < 1.0) return 0.0;
    const double h = std::max(1.0, w * 0.01);
    const double lo = std::clamp(w - h, 0.0, n);
    const double hi = std::clamp(w + h, 0.0, n);
    if (hi <= lo) return 0.0;
    return (at(hi) - at(lo)) / (hi - lo);
  }
};

/// Gap histogram of `trace` (reuse gaps plus both boundary gaps per symbol)
/// and the dense descending assembly over it.
DenseCurve dense_reference(const Trace& trace,
                           std::uint64_t* largest_gap = nullptr) {
  const std::size_t n = trace.size();
  DenseCurve curve;
  curve.fp.assign(n + 1, 0.0);
  if (n == 0) return curve;
  const Symbol space = trace.symbol_space();
  std::vector<std::uint32_t> gap_mass(n + 1, 0);
  std::vector<std::uint64_t> first(space, ~std::uint64_t{0});
  std::vector<std::uint64_t> last(space, ~std::uint64_t{0});
  double total_weight = 0.0;
  const auto symbols = trace.symbols();
  for (std::size_t t = 0; t < n; ++t) {
    const Symbol s = symbols[t];
    if (last[s] == ~std::uint64_t{0}) {
      first[s] = t;
      total_weight += 1.0;
    } else if (t - last[s] - 1 > 0) {
      gap_mass[t - last[s] - 1] += 1;
    }
    last[s] = t;
  }
  for (Symbol s = 0; s < space; ++s) {
    if (first[s] == ~std::uint64_t{0}) continue;
    if (first[s] > 0) gap_mass[first[s]] += 1;
    if (n - 1 - last[s] > 0) gap_mass[n - 1 - last[s]] += 1;
  }
  if (largest_gap != nullptr) {
    *largest_gap = 0;
    for (std::size_t g = 1; g <= n; ++g) {
      if (gap_mass[g] != 0) *largest_gap = g;
    }
  }
  double suffix_count = 0.0;
  double missing = 0.0;
  for (std::size_t w = n; w >= 1; --w) {
    suffix_count += static_cast<double>(gap_mass[w]);
    missing += suffix_count;
    curve.fp[w] = total_weight - missing / static_cast<double>(n - w + 1);
  }
  return curve;
}

/// missmodel's two read-outs, over the dense curve.
double reference_solo_miss_ratio(const DenseCurve& self, double capacity) {
  if (self.trace_length() == 0 || self.max_footprint() <= capacity) return 0.0;
  return self.derivative(self.fill_time(capacity));
}

double reference_corun_miss_ratio(const DenseCurve& self,
                                  const DenseCurve& peer, double capacity,
                                  double peer_speed) {
  if (self.trace_length() == 0) return 0.0;
  const double n = static_cast<double>(self.trace_length());
  auto demand = [&](double w) {
    return self.at(w) + peer.at(peer_speed * w);
  };
  if (demand(n) <= capacity) return 0.0;
  double lo = 0.0, hi = n;
  for (int iter = 0; iter < 64 && hi - lo > 0.25; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (demand(mid) < capacity ? lo : hi) = mid;
  }
  return self.derivative(0.5 * (lo + hi));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The curve's checkpoint stride: its pass keeps its state at
/// w = n + 1 - 64 j.
constexpr std::size_t kStride = 64;

/// Window lengths to read at: every integer w, fractional w on both sides of
/// each checkpoint, inside (n - 1, n), and outside [0, n].
std::vector<double> probe_windows(std::size_t n) {
  std::vector<double> ws;
  for (std::size_t w = 0; w <= n; ++w) ws.push_back(static_cast<double>(w));
  for (std::size_t c = n + 1; c >= 1; c -= std::min(c, kStride)) {
    for (const double d : {-0.5, -0.125, 0.125, 0.5}) {
      ws.push_back(static_cast<double>(c) + d);
    }
  }
  const double top = static_cast<double>(n);
  for (const double d : {0.75, 0.5, 1e-6}) ws.push_back(top - d);
  ws.push_back(-1.0);
  ws.push_back(top + 3.0);
  return ws;
}

/// Every value and read-out of `got` bit-identical to the dense reference.
void expect_matches(const FootprintCurve& got, const DenseCurve& want) {
  const std::size_t n = want.trace_length();
  ASSERT_EQ(got.trace_length(), n);
  ASSERT_EQ(bits(got.max_footprint()), bits(want.max_footprint()));
  const std::vector<double> values = got.values();
  ASSERT_EQ(values.size(), n + 1);
  for (std::size_t w = 0; w <= n; ++w) {
    ASSERT_EQ(bits(values[w]), bits(want.fp[w])) << "fp(" << w << ")";
  }
  for (const double w : probe_windows(n)) {
    ASSERT_EQ(bits(got.at(w)), bits(want.at(w))) << "at(" << w << ")";
    ASSERT_EQ(bits(got.derivative(w)), bits(want.derivative(w)))
        << "derivative(" << w << ")";
  }
  const double distinct = want.max_footprint();
  for (const double c : {1.0, 2.0, 0.5, 1.5, std::floor(distinct / 2),
                         distinct / 2, distinct - 1, distinct - 0.5,
                         distinct, distinct + 1}) {
    ASSERT_EQ(bits(got.fill_time(c)), bits(want.fill_time(c)))
        << "fill_time(" << c << ")";
  }
}

/// 200k events over 20,000 Zipf-ranked symbols (inverse CDF over the
/// harmonic weights, skew 1): the rare symbols recur after gaps far beyond
/// FootprintBuilder's 32,768-cell dense histogram.
Trace zipf_trace() {
  constexpr std::size_t kSymbols = 20'000;
  std::vector<double> cdf(kSymbols);
  double sum = 0.0;
  for (std::size_t k = 0; k < kSymbols; ++k) {
    sum += 1.0 / static_cast<double>(k + 1);
    cdf[k] = sum;
  }
  Rng rng(2024);
  Trace t(Trace::Granularity::kBlock);
  for (int i = 0; i < 200'000; ++i) {
    const double r = rng.uniform() * sum;
    const auto k = std::upper_bound(cdf.begin(), cdf.end(), r) - cdf.begin();
    t.push_symbol(static_cast<Symbol>(std::min<std::ptrdiff_t>(
        k, static_cast<std::ptrdiff_t>(kSymbols - 1))));
  }
  return t;
}

/// Traces of n in {0, 1, 63, 64, 65, 128, 129}, around the checkpoint
/// stride, over a few symbols with repeats.
std::vector<Trace> stride_traces() {
  std::vector<Trace> traces;
  Rng rng(64);
  for (const std::size_t n : {0, 1, 63, 64, 65, 128, 129}) {
    Trace t(Trace::Granularity::kBlock);
    for (std::size_t i = 0; i < n; ++i) {
      t.push_symbol(static_cast<Symbol>(rng.below(9)));
    }
    traces.push_back(std::move(t));
  }
  return traces;
}

TEST(FootprintOracle, StrideTracesMatchTheDenseCurve) {
  for (const Trace& t : stride_traces()) {
    SCOPED_TRACE(t.size());
    expect_matches(FootprintCurve::compute(t), dense_reference(t));
  }
}

TEST(FootprintOracle, ZipfTraceMatchesTheDenseCurve) {
  const Trace t = zipf_trace();
  std::uint64_t largest_gap = 0;
  const DenseCurve want = dense_reference(t, &largest_gap);
  ASSERT_GT(largest_gap, 32'768u);
  expect_matches(FootprintCurve::compute(t), want);
}

TEST(FootprintOracle, BuilderOverLargeGapsMatchesTheDenseCurve) {
  // The builder sees the trimmed stream; gaps past its dense histogram and
  // the boundary gaps reach the curve as sorted sparse masses.
  const Trace trimmed = zipf_trace().trimmed();
  std::uint64_t largest_gap = 0;
  const DenseCurve want = dense_reference(trimmed, &largest_gap);
  ASSERT_GT(largest_gap, 32'768u);
  FootprintBuilder builder(trimmed.symbol_space());
  for (const Symbol s : trimmed.symbols()) builder.span(s, 1);
  ASSERT_EQ(builder.positions(), trimmed.size());
  expect_matches(std::move(builder).finish(), want);
}

TEST(FootprintOracle, MissModelsMatchTheDenseCurve) {
  std::vector<Trace> traces = stride_traces();
  traces.push_back(zipf_trace());
  std::vector<FootprintCurve> curves;
  std::vector<DenseCurve> dense;
  for (const Trace& t : traces) {
    curves.push_back(FootprintCurve::compute(t));
    dense.push_back(dense_reference(t));
  }
  for (std::size_t a = 0; a < curves.size(); ++a) {
    for (const double c : {0.5, 1.0, 4.0, 7.5, 64.0, 512.0, 4096.0}) {
      ASSERT_EQ(bits(solo_miss_ratio(curves[a], c)),
                bits(reference_solo_miss_ratio(dense[a], c)))
          << "solo " << a << " capacity " << c;
    }
    for (std::size_t b = 0; b < curves.size(); ++b) {
      for (const double speed : {0.25, 1.0, 4.0}) {
        for (const double c : {1.0, 4.0, 7.5, 64.0, 512.0, 4096.0}) {
          ASSERT_EQ(
              bits(corun_miss_ratio(curves[a], curves[b], c, speed)),
              bits(reference_corun_miss_ratio(dense[a], dense[b], c, speed)))
              << a << " vs " << b << " speed " << speed << " capacity " << c;
        }
      }
    }
  }
}

}  // namespace
}  // namespace codelayout
