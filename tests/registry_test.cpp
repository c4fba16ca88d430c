// MetricsRegistry tests: counter semantics, concurrent updates,
// log-bucketed histogram summaries, the JSON dump, and the Prometheus text
// exposition.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_lint.hpp"
#include "prom_lint.hpp"
#include "support/registry.hpp"

namespace codelayout {
namespace {

using testing::json_is_valid;

TEST(CounterTest, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(LatencyHistogramTest, SingleValueSummaryIsExact) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(1000);
  const LatencyHistogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, 1000u * 1000u);
  EXPECT_EQ(s.min, 1000u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 1000.0);
  // All samples land in the [512, 1024) bucket; interpolated quantiles must
  // stay inside it and be ordered.
  EXPECT_GE(s.p50, 512.0);
  EXPECT_LT(s.p50, 1024.0);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LT(s.p99, 1024.0);
}

TEST(LatencyHistogramTest, ZeroLandsInBucketZero) {
  LatencyHistogram h;
  h.record(0);
  h.record(1);
  const LatencyHistogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 1u);
  EXPECT_LT(s.p50, 2.0);
}

TEST(LatencyHistogramTest, QuantilesSeparateTwoModes) {
  LatencyHistogram h;
  // 90 fast samples (~1us) and 10 slow ones (~1ms): p50 must sit near the
  // fast mode and p99 near the slow mode, a decade-plus apart.
  for (int i = 0; i < 90; ++i) h.record(1000);
  for (int i = 0; i < 10; ++i) h.record(1'000'000);
  const LatencyHistogram::Summary s = h.summary();
  EXPECT_LT(s.p50, 2048.0);
  EXPECT_GE(s.p99, 524288.0);
  EXPECT_EQ(s.min, 1000u);
  EXPECT_EQ(s.max, 1'000'000u);
}

TEST(LatencyHistogramTest, TopBucketQuantilesStayInItsBounds) {
  // 2^63 and 2^64 - 1 land in bucket 63, [2^63, 2^64): its upper bound must
  // not be a 64-bit shift by 64.
  LatencyHistogram h;
  h.record(std::uint64_t{1} << 63);
  h.record(~std::uint64_t{0});
  const LatencyHistogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.max, ~std::uint64_t{0});
  EXPECT_DOUBLE_EQ(s.p50, 0x1p63 + 0.5 * 0x1p63);
  EXPECT_DOUBLE_EQ(s.p99, 0x1p63 + 0.99 * 0x1p63);
  EXPECT_LE(s.p99, 0x1p64);
}

TEST(LatencyHistogramTest, OneSampleIsEveryQuantile) {
  // 722 ms interpolates to 805 ms at p50 inside its bucket; the clamp to
  // [min, max] reads the sample itself.
  LatencyHistogram h;
  h.record(722'000'000);
  const LatencyHistogram::Summary s = h.summary();
  EXPECT_DOUBLE_EQ(s.p50, 722'000'000.0);
  EXPECT_DOUBLE_EQ(s.p90, 722'000'000.0);
  EXPECT_DOUBLE_EQ(s.p99, 722'000'000.0);
}

TEST(LatencyHistogramTest, QuantilesOfOneBucketStayWithinItsSamples) {
  // Both samples sit low in [2^20, 2^21): interpolation alone would put
  // p99 near the bucket's top.
  LatencyHistogram h;
  h.record(1'100'000);
  h.record(1'200'000);
  const LatencyHistogram::Summary s = h.summary();
  EXPECT_GE(s.p50, 1'100'000.0);
  EXPECT_LE(s.p50, s.p99);
  EXPECT_LE(s.p99, 1'200'000.0);
}

TEST(LatencyHistogramTest, EmptySummaryIsAllZero) {
  LatencyHistogram h;
  const LatencyHistogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(MetricsRegistryTest, InstrumentsHaveStableIdentity) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &registry.counter("y"));
  LatencyHistogram& h = registry.histogram("x");  // separate namespace
  EXPECT_EQ(&h, &registry.histogram("x"));
}

TEST(MetricsRegistryTest, ConcurrentAddsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Mix of cached-reference and by-name updates, plus histogram records,
      // to exercise registration races.
      Counter& cached = registry.counter("events");
      for (int i = 0; i < kAddsPerThread; ++i) {
        cached.add();
        registry.counter("lookups").add(2);
        registry.histogram("lat").record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.counter("events").value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_EQ(registry.counter("lookups").value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread * 2);
  EXPECT_EQ(registry.histogram("lat").summary().count,
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST(MetricsRegistryTest, JsonDumpIsValidAndSorted) {
  MetricsRegistry registry;
  registry.counter("zeta").add(3);
  registry.counter("alpha").add(1);
  registry.histogram("stage.wall_ns").record(1500);
  const std::string doc = registry.to_json("unit");
  std::string error;
  EXPECT_TRUE(json_is_valid(doc, &error)) << error << "\n" << doc;
  EXPECT_NE(doc.find(R"("alpha":1)"), std::string::npos);
  EXPECT_NE(doc.find(R"("zeta":3)"), std::string::npos);
  EXPECT_NE(doc.find(R"("stage.wall_ns")"), std::string::npos);
  EXPECT_NE(doc.find(R"("p99_ns")"), std::string::npos);
  // std::map ordering: "alpha" dumps before "zeta".
  EXPECT_LT(doc.find("\"alpha\""), doc.find("\"zeta\""));
}

TEST(MetricsRegistryTest, JsonHistogramDumpCarriesCountAndSum) {
  MetricsRegistry registry;
  registry.histogram("stage.wall_ns").record(100);
  registry.histogram("stage.wall_ns").record(300);
  const std::string doc = registry.to_json("unit");
  // Prometheus histogram semantics surface in the JSON dump too: the raw
  // sample count and nanosecond sum, not just derived quantiles.
  EXPECT_NE(doc.find(R"("count":2)"), std::string::npos) << doc;
  EXPECT_NE(doc.find(R"("sum_ns":400)"), std::string::npos) << doc;
}

TEST(MetricsRegistryTest, PrometheusDumpIsValidAndSanitized) {
  MetricsRegistry registry;
  registry.counter("service.jobs.ok").add(7);
  registry.counter("queue-depth").add(3);
  registry.histogram("job.wall_ns").record(5);  // bucket [4, 8) -> le="8"
  registry.histogram("job.wall_ns").record(6);
  registry.histogram("job.wall_ns").record(100);  // bucket [64, 128)
  const std::string dump = registry.dump_prometheus();
  std::string error;
  EXPECT_TRUE(testing::prom_is_valid(dump, &error)) << error << "\n" << dump;
  // Dots and dashes sanitize to underscores; counters grow a _total suffix.
  EXPECT_NE(dump.find("codelayout_service_jobs_ok_total 7\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("codelayout_queue_depth_total 3\n"), std::string::npos)
      << dump;
  // Cumulative buckets at power-of-two upper edges, then +Inf == _count.
  EXPECT_NE(dump.find("codelayout_job_wall_ns_bucket{le=\"8\"} 2\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("codelayout_job_wall_ns_bucket{le=\"128\"} 3\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("codelayout_job_wall_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("codelayout_job_wall_ns_sum 111\n"), std::string::npos);
  EXPECT_NE(dump.find("codelayout_job_wall_ns_count 3\n"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusEmptyHistogramStillHasInfBucket) {
  MetricsRegistry registry;
  registry.histogram("idle_ns");
  const std::string dump = registry.dump_prometheus();
  std::string error;
  EXPECT_TRUE(testing::prom_is_valid(dump, &error)) << error << "\n" << dump;
  EXPECT_NE(dump.find("codelayout_idle_ns_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("codelayout_idle_ns_count 0\n"), std::string::npos);
}

TEST(MetricsRegistryTest, QuantilesExactUnderConcurrentRecording) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  // Every thread records the same known distribution: 90% at ~1us, 9% at
  // ~100us, 1% at ~10ms. The merged histogram must place p50/p90/p99 in the
  // buckets those modes land in, regardless of interleaving.
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      LatencyHistogram& h = registry.histogram("lat");
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 100 == 99) {
          h.record(10'000'000);
        } else if (i % 10 == 9) {
          h.record(100'000);
        } else {
          h.record(1'000);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const LatencyHistogram::Summary s = registry.histogram("lat").summary();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.sum, static_cast<std::uint64_t>(kThreads) *
                       (900u * 1'000u + 90u * 100'000u + 10u * 10'000'000u));
  // p50 in the ~1us mode's bucket [1024, 2048); p90 at the fast/medium mode
  // boundary (rank 0.9 falls exactly at the top of the fast mode); p99 in
  // the ~100us bucket [65536, 131072) since 10ms only starts at rank 0.99.
  EXPECT_GE(s.p50, 512.0);
  EXPECT_LT(s.p50, 2048.0);
  EXPECT_LT(s.p90, 131072.0);
  EXPECT_GE(s.p99, 65536.0);
  EXPECT_LE(s.p99, 16'777'216.0);
}

TEST(MetricsRegistryTest, PrometheusDumpStaysConsistentMidRecording) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &stop] {
      std::uint64_t v = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        registry.histogram("lat").record(v);
        registry.counter("ops").add();
        v = v * 2654435761u + 1;  // cheap LCG over the full bucket range
      }
    });
  }
  // Dumps taken mid-update must still be lint-clean: buckets cumulative,
  // +Inf == _count (both derive from one bucket snapshot).
  for (int i = 0; i < 50; ++i) {
    const std::string dump = registry.dump_prometheus();
    std::string error;
    ASSERT_TRUE(testing::prom_is_valid(dump, &error)) << error << "\n" << dump;
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
}

TEST(MetricsRegistryTest, ResetForgetsInstruments) {
  MetricsRegistry registry;
  registry.counter("gone").add(7);
  registry.reset();
  EXPECT_EQ(registry.counter("gone").value(), 0u);
}

TEST(MetricsRegistryTest, DisabledByDefault) {
  MetricsRegistry registry;
  EXPECT_FALSE(registry.enabled());
  registry.set_enabled(true);
  EXPECT_TRUE(registry.enabled());
}

}  // namespace
}  // namespace codelayout
