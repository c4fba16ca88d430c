// Central metrics registry: named counters and log-bucketed latency
// histograms shared by the evaluation engine, the thread pool, and the
// analysis kernels.
//
// Registration (name -> instrument) takes a mutex once per call site; every
// update after that is a relaxed atomic on the cached reference, so the hot
// paths never contend. The whole registry is gated by a runtime flag
// (set_enabled / the CODELAYOUT_METRICS environment variable): call sites
// batch their updates locally and flush only `if (registry.enabled())`, so a
// disabled registry costs one predictable branch per kernel invocation.
// Instruments have stable addresses for the registry's lifetime.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace codelayout {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Latency distribution over power-of-two buckets: bucket i counts samples
/// with floor(log2(v)) == i (v in nanoseconds; v == 0 lands in bucket 0).
/// Quantiles interpolate linearly inside the selected bucket and are clamped
/// to the recorded [min, max], so p50/p90/p99 carry at most ~2x
/// bucket-relative error and never leave the range of the samples — plenty
/// for "where does the time go" questions, at the cost of 64 relaxed-atomic
/// words.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t nanos);

  struct Summary {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;

    [[nodiscard]] double mean() const {
      return count ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
    }
  };
  /// Consistent-enough snapshot: buckets are read relaxed, so a summary taken
  /// mid-update can be off by in-flight samples (never torn per bucket).
  [[nodiscard]] Summary summary() const;

  /// Relaxed snapshot of the raw per-bucket counts (bucket i counts samples
  /// in [2^i, 2^{i+1}), bucket 0 in [0, 2)). Feeds the Prometheus cumulative
  /// bucket exposition.
  [[nodiscard]] std::array<std::uint64_t, kBuckets> bucket_counts() const;

 private:
  [[nodiscard]] static double quantile_from(
      const std::array<std::uint64_t, kBuckets>& buckets, const Summary& range,
      double q);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

class MetricsRegistry {
 public:
  /// The process-wide registry. Enabled at startup when the
  /// CODELAYOUT_METRICS environment variable is set (and non-"0").
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Finds or creates the named instrument. References stay valid for the
  /// registry's lifetime; cache them at hot call sites.
  Counter& counter(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  /// Zeroes nothing but forgets every instrument (tests only: outstanding
  /// cached references dangle, so never call this mid-measurement).
  void reset();

  /// One JSON object: {"counters":{...},"histograms":{name:
  /// {count,min,max,mean,p50,p90,p99,sum_ns,*_ms...}}}. Histogram times are
  /// dumped in both raw nanoseconds and milliseconds.
  [[nodiscard]] std::string to_json(std::string_view name = {}) const;

  /// to_json() + trailing newline written to `path`; throws ContractError on
  /// IO failure.
  void write_json(const std::string& path, std::string_view name = {}) const;

  /// Prometheus text exposition (format version 0.0.4). Counters become
  /// `<prefix>_<name>_total`, histograms the
  /// standard cumulative-bucket triplet (`_bucket{le="..."}` at power-of-two
  /// boundaries up to the highest populated bucket plus `+Inf`, `_sum`,
  /// `_count`), all in nanoseconds. Instrument names are sanitized to the
  /// Prometheus charset (every other byte becomes '_').
  [[nodiscard]] std::string dump_prometheus(
      std::string_view prefix = "codelayout") const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  // std::map keeps the JSON dump deterministically sorted by name.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
};

}  // namespace codelayout
