// Analytic co-run screening (perfmodel/corun_predictor.hpp) and the
// cache-aware co-scheduler (perfmodel/scheduler.hpp):
//
//   * FootprintBuilder reproduces FootprintCurve::compute over the trimmed
//     flat trace bit for bit — the streaming kernel the solo profiles ride.
//   * Predictions are deterministic and land within the documented error
//     envelope of the bit-exact simulator on a golden workload subset
//     (BENCH_predictor.json pins the full-matrix numbers; the CI floor is
//     --predictor-floor 0.05:50).
//   * The greedy + local-search scheduler finds brute-force optima on small
//     instances, refines away greedy mistakes, and is deterministic.
//   * Hierarchy edge cases: zero-footprint and single-line programs, an L2
//     smaller than the combined footprints, degenerate one-set geometries.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "harness/lab.hpp"
#include "helpers.hpp"
#include "locality/footprint.hpp"
#include "perfmodel/corun_predictor.hpp"
#include "perfmodel/scheduler.hpp"
#include "support/check.hpp"
#include "support/registry.hpp"
#include "support/rng.hpp"

namespace codelayout {
namespace {

using testing::hash_footprint;

// ---- FootprintBuilder vs the reference compute ------------------------------

struct Span {
  Symbol first;
  std::uint32_t count;
  std::uint64_t repeats;
};

/// The reference path: materialize the flat symbol stream, trim consecutive
/// duplicates (exactly what line_trace() does), compute the curve.
FootprintCurve reference_curve(const std::vector<Span>& spans,
                               std::uint64_t* trimmed_length = nullptr) {
  Trace flat(Trace::Granularity::kBlock);
  for (const Span& s : spans) {
    for (std::uint64_t r = 0; r < s.repeats; ++r) {
      for (std::uint32_t l = 0; l < s.count; ++l) flat.push_symbol(s.first + l);
    }
  }
  const Trace trimmed = flat.trimmed();
  if (trimmed_length != nullptr) *trimmed_length = trimmed.size();
  return FootprintCurve::compute(trimmed);
}

FootprintCurve builder_curve(const std::vector<Span>& spans, Symbol space,
                             std::uint64_t* positions = nullptr) {
  FootprintBuilder builder(space);
  for (const Span& s : spans) {
    for (std::uint64_t r = 0; r < s.repeats; ++r) builder.span(s.first, s.count);
  }
  if (positions != nullptr) *positions = builder.positions();
  return std::move(builder).finish();
}

class FootprintBuilderRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FootprintBuilderRandomTest, BitIdenticalToTrimmedCompute) {
  Rng rng(GetParam());
  std::vector<Span> spans;
  Symbol space = 0;
  const std::uint64_t n = 10 + rng.below(60);
  for (std::uint64_t i = 0; i < n; ++i) {
    // Overlapping spans exercise the trimming seam between adjacent blocks
    // sharing a boundary line; repeats exercise back-to-back executions.
    const Span s{static_cast<Symbol>(rng.below(40)),
                 static_cast<std::uint32_t>(1 + rng.below(6)),
                 1 + rng.below(5)};
    spans.push_back(s);
    space = std::max(space, s.first + s.count);
  }
  std::uint64_t trimmed_length = 0;
  std::uint64_t positions = 0;
  const FootprintCurve want = reference_curve(spans, &trimmed_length);
  const FootprintCurve got = builder_curve(spans, space, &positions);
  ASSERT_EQ(positions, trimmed_length);
  EXPECT_EQ(hash_footprint(got), hash_footprint(want));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FootprintBuilderRandomTest,
                         ::testing::Values(2, 3, 5, 7, 11, 13, 17, 19));

TEST(FootprintBuilder, RepeatedSpanKeepsEveryRepetition) {
  // One 4-line block executed 1000 times: the seam never trims (last line !=
  // first line), so every repetition survives, and the curve must equal the
  // reference's.
  const std::vector<Span> spans = {{0, 4, 1000}};
  std::uint64_t trimmed_length = 0;
  std::uint64_t positions = 0;
  const FootprintCurve want = reference_curve(spans, &trimmed_length);
  const FootprintCurve got = builder_curve(spans, 4, &positions);
  ASSERT_EQ(trimmed_length, 4000u);
  ASSERT_EQ(positions, 4000u);
  EXPECT_EQ(hash_footprint(got), hash_footprint(want));
  EXPECT_DOUBLE_EQ(got.max_footprint(), 4.0);
}

TEST(FootprintBuilder, SingleLineRepeatsTrimToOnePosition) {
  std::uint64_t positions = 0;
  const FootprintCurve got = builder_curve({{5, 1, 100}, {5, 1, 3}}, 6,
                                           &positions);
  // All 103 occurrences are consecutive duplicates of one line.
  EXPECT_EQ(positions, 1u);
  EXPECT_DOUBLE_EQ(got.max_footprint(), 1.0);
  EXPECT_EQ(hash_footprint(got),
            hash_footprint(reference_curve({{5, 1, 100}, {5, 1, 3}})));
}

TEST(FootprintBuilder, LargeGapsTakeTheDeferredPath) {
  // Symbol 0 reused across a >32768-position gap of other work: the gap mass
  // lands in the deferred side list, and the finished curve still matches
  // the reference bit for bit.
  std::vector<Span> spans;
  spans.push_back({0, 1, 1});
  for (int i = 0; i < 20; ++i) {
    spans.push_back({1, 3, 600});  // 1800 positions each: total 36000
  }
  spans.push_back({0, 1, 1});
  Symbol space = 4;
  std::uint64_t trimmed_length = 0;
  std::uint64_t positions = 0;
  const FootprintCurve want = reference_curve(spans, &trimmed_length);
  const FootprintCurve got = builder_curve(spans, space, &positions);
  ASSERT_EQ(positions, trimmed_length);
  ASSERT_GT(positions, 32768u);
  EXPECT_EQ(hash_footprint(got), hash_footprint(want));
}

TEST(FootprintBuilder, EmptyStream) {
  FootprintBuilder builder(8);
  builder.span(0, 0);  // zero-width span is a no-op
  EXPECT_EQ(builder.positions(), 0u);
  const FootprintCurve curve = std::move(builder).finish();
  EXPECT_EQ(curve.trace_length(), 0u);
  EXPECT_DOUBLE_EQ(curve.max_footprint(), 0.0);
}

// ---- Predictor edge cases (synthetic profiles) ------------------------------

SoloProfile profile_from_spans(const std::vector<Span>& spans, Symbol space,
                               std::uint64_t instructions) {
  SoloProfile profile;
  profile.workload = "synthetic";
  std::uint64_t positions = 0;
  profile.lines = builder_curve(spans, space, &positions);
  profile.line_probes = positions;
  profile.instructions = instructions;
  profile.data_stall_cpi = 0.5;
  return profile;
}

/// A looping program touching `lines` distinct lines per iteration.
SoloProfile loop_profile(Symbol lines, std::uint64_t iterations,
                         std::uint64_t instructions) {
  return profile_from_spans({{0, lines, iterations}}, lines, instructions);
}

TEST(PredictorEdgeCases, ZeroFootprintProgram) {
  const SoloProfile empty = profile_from_spans({}, 0, 0);
  const SoloProfile busy = loop_profile(600, 100, 1000000);
  const CorunPrediction p = predict_corun(empty, busy);
  EXPECT_DOUBLE_EQ(p.self.solo_miss_ratio, 0.0);
  EXPECT_DOUBLE_EQ(p.self.corun_miss_ratio, 0.0);
  EXPECT_DOUBLE_EQ(p.self.predicted_misses, 0.0);
  EXPECT_DOUBLE_EQ(p.self.slowdown(), 1.0);
  // The busy peer is unaffected by an empty partner.
  EXPECT_DOUBLE_EQ(p.peer.corun_miss_ratio, p.peer.solo_miss_ratio);
  EXPECT_DOUBLE_EQ(predicted_solo_misses(empty), 0.0);
}

TEST(PredictorEdgeCases, SingleLineProgramNeverMisses) {
  const SoloProfile tiny = loop_profile(1, 50000, 200000);
  const SoloProfile busy = loop_profile(600, 100, 1000000);
  const CorunPrediction p = predict_corun(tiny, busy);
  // One line always fits; the model's steady-state miss ratio is zero even
  // against a thrashing peer (the single hot line survives by recency).
  EXPECT_DOUBLE_EQ(p.self.solo_miss_ratio, 0.0);
  EXPECT_GE(p.self.corun_miss_ratio, 0.0);
  EXPECT_TRUE(std::isfinite(p.self.corun_miss_ratio));
  EXPECT_GE(p.self.slowdown(), 1.0);
}

TEST(PredictorEdgeCases, L2SmallerThanCombinedFootprints) {
  // l1 = 16 lines, l2 = 32 lines; each program loops over 100+ lines, so the
  // shared L2 is far too small for the pair.
  HierarchySpec hierarchy;
  hierarchy.l1 = CacheGeometry{16 * 64, 4, 64};
  hierarchy.l2 = CacheGeometry{32 * 64, 4, 64};
  hierarchy.validate();
  const SoloProfile a = loop_profile(120, 500, 600000);
  const SoloProfile b = loop_profile(150, 400, 600000);
  const CorunPrediction p = predict_corun(a, b, hierarchy);
  // Private front: co-run front ratio stays the solo one.
  EXPECT_DOUBLE_EQ(p.self.corun_miss_ratio, p.self.solo_miss_ratio);
  EXPECT_DOUBLE_EQ(p.peer.corun_miss_ratio, p.peer.solo_miss_ratio);
  // The shared L2 degrades under contention but its memory rate can never
  // exceed the front's miss stream feeding it.
  EXPECT_GE(p.self.corun_l2_miss_rate, p.self.solo_l2_miss_rate);
  EXPECT_LE(p.self.corun_l2_miss_rate, p.self.corun_miss_ratio + 1e-12);
  EXPECT_TRUE(std::isfinite(p.self.corun_l2_miss_rate));
  EXPECT_GE(p.self.slowdown(), 1.0);
}

TEST(PredictorEdgeCases, DegenerateOneSetGeometry) {
  // 4 lines in a single set: the smallest valid L1. The closed form must
  // stay finite and ordered (co-run never beats solo).
  HierarchySpec hierarchy;
  hierarchy.l1 = CacheGeometry{4 * 64, 4, 64};
  hierarchy.validate();
  ASSERT_EQ(hierarchy.l1.sets(), 1u);
  const SoloProfile a = loop_profile(20, 1000, 100000);
  const SoloProfile b = loop_profile(30, 800, 100000);
  const CorunPrediction p = predict_corun(a, b, hierarchy);
  EXPECT_TRUE(std::isfinite(p.self.corun_miss_ratio));
  EXPECT_TRUE(std::isfinite(p.peer.corun_miss_ratio));
  EXPECT_GE(p.self.corun_miss_ratio, p.self.solo_miss_ratio - 1e-12);
  EXPECT_GE(p.self.corun_cycles, p.self.solo_cycles);
}

TEST(PredictorEdgeCases, PeerSpeedClampsToSimulatorBand) {
  SoloProfile slow = loop_profile(10, 10, 1000);
  SoloProfile fast = loop_profile(10, 10, 1000);
  slow.data_stall_cpi = 100.0;
  fast.data_stall_cpi = 0.0;
  EXPECT_DOUBLE_EQ(
      corun_peer_speed(slow.data_stall_cpi, fast.data_stall_cpi), 4.0);
  EXPECT_DOUBLE_EQ(
      corun_peer_speed(fast.data_stall_cpi, slow.data_stall_cpi), 0.25);
}

// ---- Golden-subset accuracy and determinism (real workloads) ----------------

/// The documented envelope: BENCH_predictor.json records full-matrix
/// corun_err_max 0.027; the bound here and in the CI floor is 0.05.
constexpr double kErrorBound = 0.05;

class PredictorGoldenTest : public ::testing::Test {
 protected:
  static constexpr const char* kNames[3] = {"458.sjeng", "471.omnetpp",
                                            "403.gcc"};
  Lab lab_{LabOptions().threads(1)};
};

TEST_F(PredictorGoldenTest, PredictionsAreDeterministicAndMemoized) {
  const CorunPrediction first =
      lab_.predict_corun(kNames[0], std::nullopt, kNames[1], std::nullopt);
  const CorunPrediction second =
      lab_.predict_corun(kNames[0], std::nullopt, kNames[1], std::nullopt);
  EXPECT_EQ(first.self.corun_miss_ratio, second.self.corun_miss_ratio);
  EXPECT_EQ(first.self.solo_miss_ratio, second.self.solo_miss_ratio);
  EXPECT_EQ(first.peer.corun_miss_ratio, second.peer.corun_miss_ratio);
  EXPECT_EQ(first.peer_speed, second.peer_speed);
  // The profile memo means the repeated call rebuilds nothing: the profiles
  // are the same objects.
  const SoloProfile& p1 = lab_.solo_profile(kNames[0], std::nullopt);
  const SoloProfile& p2 = lab_.solo_profile(kNames[0], std::nullopt);
  EXPECT_EQ(&p1, &p2);
}

TEST_F(PredictorGoldenTest, CorunPredictionsWithinDocumentedBound) {
  for (const char* self : kNames) {
    for (const char* peer : kNames) {
      if (self == peer) continue;
      const CorunPrediction predicted =
          lab_.predict_corun(self, std::nullopt, peer, std::nullopt);
      const CorunResult& simulated = lab_.corun(
          self, std::nullopt, peer, std::nullopt, Measure::kSimulator);
      EXPECT_NEAR(predicted.self.corun_miss_ratio,
                  simulated.self.miss_ratio(), kErrorBound)
          << self << " vs " << peer;
    }
  }
}

TEST_F(PredictorGoldenTest, SoloPredictionsWithinDocumentedBound) {
  for (const char* name : kNames) {
    const CorunPrediction predicted =
        lab_.predict_corun(name, std::nullopt, name, std::nullopt);
    const SimResult& simulated =
        lab_.solo(name, std::nullopt, Measure::kSimulator);
    EXPECT_NEAR(predicted.self.solo_miss_ratio, simulated.miss_ratio(),
                kErrorBound)
        << name;
  }
}

TEST_F(PredictorGoldenTest, ProfileMatchesLineTraceStatistics) {
  // The profile's totals must agree with the bit-exact simulator's
  // accounting of the same fetch stream (same plan, same trace).
  const SoloProfile& profile = lab_.solo_profile(kNames[0], std::nullopt);
  const SimResult& sim =
      lab_.solo(kNames[0], std::nullopt, Measure::kSimulator);
  EXPECT_EQ(profile.instructions, sim.instructions);
  // The profile's probe count is over the *trimmed* line trace (Definition
  // 1): consecutive duplicate probes collapse, so it is bounded by the
  // simulator's raw demand probe count.
  EXPECT_GT(profile.line_probes, 0u);
  EXPECT_LT(profile.line_probes, sim.line_probes);
}

TEST(ProfileMemo, ProfileBytesCountsTheCurveOfEachBuild) {
  struct EnableMetrics {
    MetricsRegistry& registry = MetricsRegistry::global();
    bool was_enabled = registry.enabled();
    EnableMetrics() { registry.set_enabled(true); }
    ~EnableMetrics() { registry.set_enabled(was_enabled); }
  } metrics;
  auto read = [&](const char* name) {
    return metrics.registry.counter(name).value();
  };
  const std::uint64_t builds_before = read("perfmodel.predict.profile_builds");
  const std::uint64_t bytes_before = read("perfmodel.predict.profile_bytes");

  Lab lab(LabOptions().threads(1));
  const SoloProfile& profile = lab.solo_profile("458.sjeng", std::nullopt);
  (void)lab.solo_profile("458.sjeng", std::nullopt);  // a memo hit adds none
  ASSERT_EQ(read("perfmodel.predict.profile_builds") - builds_before, 1u);
  const std::uint64_t bytes =
      read("perfmodel.predict.profile_bytes") - bytes_before;
  EXPECT_EQ(bytes, profile.lines.bytes());
  EXPECT_GT(bytes, 0u);
  // Below the n + 1 doubles a dense curve would hold.
  EXPECT_LT(bytes, 8 * (profile.lines.trace_length() + 1));
}

// ---- Scheduler --------------------------------------------------------------

PairCostMatrix matrix_from(std::vector<double> solo,
                           std::vector<double> pair) {
  PairCostMatrix costs;
  costs.programs = solo.size();
  costs.solo = std::move(solo);
  costs.pair = std::move(pair);
  CL_CHECK(costs.pair.size() == costs.programs * costs.programs);
  return costs;
}

/// Brute force over every assignment of exactly `need_pairs` disjoint pairs.
double brute_force_best(const PairCostMatrix& costs, std::size_t slots) {
  const std::size_t n = costs.programs;
  const std::size_t need_pairs = n > slots ? n - slots : 0;
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> partner(n, n);
  auto full = [&](auto&& self, std::size_t index, std::size_t made,
                  double acc) -> void {
    if (made == need_pairs) {
      double total = acc;
      for (std::size_t i = 0; i < n; ++i) {
        if (partner[i] == n) total += costs.solo[i];
      }
      best = std::min(best, total);
      return;
    }
    if (index >= n) return;
    if (partner[index] != n) {
      self(self, index + 1, made, acc);
      return;
    }
    for (std::size_t b = index + 1; b < n; ++b) {
      if (partner[b] != n) continue;
      partner[index] = b;
      partner[b] = index;
      self(self, index + 1, made + 1, acc + costs.cost(index, b));
      partner[index] = n;
      partner[b] = n;
    }
    self(self, index + 1, made, acc);  // index stays solo
  };
  full(full, 0, 0, 0.0);
  return best;
}

TEST(Scheduler, FindsBruteForceOptimumOnRandomInstances) {
  for (std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    Rng rng(seed);
    const std::size_t n = 6;
    std::vector<double> solo(n);
    std::vector<double> pair(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      solo[i] = static_cast<double>(rng.below(1000));
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        // Pairing never reduces misses: cost >= the two solos combined.
        const double cost =
            solo[i] + solo[j] + static_cast<double>(rng.below(2000));
        pair[i * n + j] = cost;
        pair[j * n + i] = cost;
      }
    }
    const PairCostMatrix costs = matrix_from(solo, pair);
    for (std::size_t slots : {3u, 4u, 5u}) {
      const ScheduleResult got = schedule_corun(costs, slots);
      const double want = brute_force_best(costs, slots);
      EXPECT_NEAR(got.predicted_total_misses, want, 1e-9)
          << "seed=" << seed << " slots=" << slots;
    }
  }
}

TEST(Scheduler, RefinementFixesGreedyMistake) {
  // Greedy (by pairing delta) grabs (0,1) first, forcing the terrible (2,3);
  // the cross-pair move repartners to (0,2)(1,3) = 4.
  const PairCostMatrix costs = matrix_from(
      {0, 0, 0, 0}, {0, 1, 2, 9,    //
                     1, 0, 9, 2,    //
                     2, 9, 0, 10,   //
                     9, 2, 10, 0});
  const ScheduleResult result = schedule_corun(costs, 2);
  EXPECT_GE(result.refine_passes, 1u);
  EXPECT_DOUBLE_EQ(result.predicted_total_misses, 4.0);
  ASSERT_EQ(result.pairs.size(), 2u);
  EXPECT_EQ(result.pairs[0], (SchedulePair{0, 2, 2.0}));
  EXPECT_EQ(result.pairs[1], (SchedulePair{1, 3, 2.0}));
}

TEST(Scheduler, EnoughSlotsMeansNobodyPairs) {
  const PairCostMatrix costs =
      matrix_from({5, 7, 9}, std::vector<double>(9, 100.0));
  const ScheduleResult result = schedule_corun(costs, 3);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(result.unpaired, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(result.predicted_total_misses, 21.0);
  EXPECT_EQ(result.refine_passes, 0u);
}

TEST(Scheduler, InfeasibleInstanceThrows) {
  const PairCostMatrix costs =
      matrix_from(std::vector<double>(5, 1.0), std::vector<double>(25, 2.0));
  EXPECT_THROW((void)schedule_corun(costs, 2), ContractError);
  EXPECT_THROW((void)schedule_corun(costs, 0), ContractError);
}

TEST(Scheduler, DeterministicAcrossRepeatedRuns) {
  Rng rng(777);
  const std::size_t n = 8;
  std::vector<double> solo(n);
  std::vector<double> pair(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    solo[i] = static_cast<double>(rng.below(500));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double cost =
          solo[i] + solo[j] + static_cast<double>(rng.below(900));
      pair[i * n + j] = cost;
      pair[j * n + i] = cost;
    }
  }
  const PairCostMatrix costs = matrix_from(solo, pair);
  const ScheduleResult a = schedule_corun(costs, 5);
  const ScheduleResult b = schedule_corun(costs, 5);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.unpaired, b.unpaired);
  EXPECT_EQ(a.predicted_total_misses, b.predicted_total_misses);
  EXPECT_EQ(a.refine_passes, b.refine_passes);
}

TEST(Scheduler, TopKPairsRanksByCostDescending) {
  ScheduleResult schedule;
  schedule.pairs = {{0, 1, 10.0}, {2, 3, 30.0}, {4, 5, 20.0}, {6, 7, 30.0}};
  EXPECT_EQ(top_k_pairs(schedule, 2), (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(top_k_pairs(schedule, 10),
            (std::vector<std::size_t>{1, 3, 2, 0}));
  EXPECT_TRUE(top_k_pairs(schedule, 0).empty());
}

TEST(Scheduler, PairCostsFromProfilesAreSymmetric) {
  const SoloProfile a = loop_profile(100, 200, 400000);
  const SoloProfile b = loop_profile(700, 50, 500000);
  const SoloProfile c = loop_profile(300, 80, 300000);
  const std::vector<const SoloProfile*> profiles = {&a, &b, &c};
  const PairCostMatrix costs = compute_pair_costs(profiles);
  ASSERT_EQ(costs.programs, 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(costs.solo[i], 0.0);
    for (std::size_t j = 0; j < 3; ++j) {
      if (i == j) continue;
      EXPECT_EQ(costs.cost(i, j), costs.cost(j, i));
      // Pairing never reduces predicted misses below the two solos.
      EXPECT_GE(costs.cost(i, j),
                costs.solo[i] + costs.solo[j] - 1e-9);
    }
  }
}

}  // namespace
}  // namespace codelayout
