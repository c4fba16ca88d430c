#include "support/registry.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/check.hpp"
#include "support/metrics.hpp"

namespace codelayout {

void LatencyHistogram::record(std::uint64_t nanos) {
  const std::size_t bucket =
      nanos == 0 ? 0 : static_cast<std::size_t>(std::bit_width(nanos) - 1);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(nanos, std::memory_order_relaxed);
  // Relaxed CAS loops: min/max only tighten, so lost races re-try.
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (nanos < cur &&
         !min_.compare_exchange_weak(cur, nanos, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (nanos > cur &&
         !max_.compare_exchange_weak(cur, nanos, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::quantile_from(
    const std::array<std::uint64_t, kBuckets>& buckets, const Summary& range,
    double q) {
  if (range.count == 0) return 0.0;
  const auto lowest = static_cast<double>(range.min);
  const auto highest = static_cast<double>(range.max);
  const double target = q * static_cast<double>(range.count);
  double seen = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= target) {
      // Interpolate inside [2^i, 2^(i+1)); bucket 0 spans [0, 2). The top
      // bucket's bound 2^64 is a double, not a 64-bit shift. A snapshot
      // taken mid-record can see min above max; max wins then.
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
      const double hi = std::ldexp(1.0, static_cast<int>(i) + 1);
      const double frac = (target - seen) / in_bucket;
      return std::min(std::max(lo + frac * (hi - lo), lowest), highest);
    }
    seen += in_bucket;
  }
  return highest;
}

LatencyHistogram::Summary LatencyHistogram::summary() const {
  Summary out;
  std::array<std::uint64_t, kBuckets> snap{};
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    snap[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snap[i];
  }
  out.count = total;
  out.sum = sum_.load(std::memory_order_relaxed);
  out.min = total ? min_.load(std::memory_order_relaxed) : 0;
  out.max = max_.load(std::memory_order_relaxed);
  out.p50 = quantile_from(snap, out, 0.50);
  out.p90 = quantile_from(snap, out, 0.90);
  out.p99 = quantile_from(snap, out, 0.99);
  return out;
}

std::array<std::uint64_t, LatencyHistogram::kBuckets>
LatencyHistogram::bucket_counts() const {
  std::array<std::uint64_t, kBuckets> snap{};
  for (std::size_t i = 0; i < kBuckets; ++i) {
    snap[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    const char* env = std::getenv("CODELAYOUT_METRICS");
    if (env != nullptr && std::string_view(env) != "0") r->set_enabled(true);
    return r;
  }();
  return *registry;
}

namespace {

template <typename Map, typename Value>
Value& find_or_create(std::mutex& mutex, Map& map, std::string_view name) {
  std::scoped_lock lock(mutex);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<Value>()).first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  return find_or_create<decltype(counters_), Counter>(mutex_, counters_, name);
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  return find_or_create<decltype(histograms_), LatencyHistogram>(
      mutex_, histograms_, name);
}

void MetricsRegistry::reset() {
  std::scoped_lock lock(mutex_);
  counters_.clear();
  histograms_.clear();
}

std::string MetricsRegistry::to_json(std::string_view name) const {
  std::scoped_lock lock(mutex_);
  JsonWriter json;
  if (!name.empty()) json.field("name", name);
  json.begin_object("counters");
  for (const auto& [key, counter] : counters_) json.field(key, counter->value());
  json.end_object();
  json.begin_object("histograms");
  for (const auto& [key, histogram] : histograms_) {
    const LatencyHistogram::Summary s = histogram->summary();
    json.begin_object(key)
        .field("count", s.count)
        .field("min_ns", s.min)
        .field("max_ns", s.max)
        .field("mean_ns", s.mean())
        .field("p50_ns", s.p50)
        .field("p90_ns", s.p90)
        .field("p99_ns", s.p99)
        .field("sum_ns", s.sum)
        .field("sum_ms", static_cast<double>(s.sum) / 1e6)
        .end_object();
  }
  json.end_object();
  return json.finish();
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; anything else maps to '_'.
std::string prom_name(std::string_view prefix, std::string_view name,
                      std::string_view suffix = {}) {
  std::string out;
  out.reserve(prefix.size() + 1 + name.size() + suffix.size());
  out.append(prefix);
  out.push_back('_');
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  out.append(suffix);
  return out;
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out.append(buf);
}

}  // namespace

std::string MetricsRegistry::dump_prometheus(std::string_view prefix) const {
  std::scoped_lock lock(mutex_);
  std::string out;
  for (const auto& [key, counter] : counters_) {
    const std::string name = prom_name(prefix, key, "_total");
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [key, histogram] : histograms_) {
    const std::string name = prom_name(prefix, key);
    out += "# TYPE " + name + " histogram\n";
    const auto buckets = histogram->bucket_counts();
    std::size_t highest = 0;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      total += buckets[i];
      if (buckets[i] != 0) highest = i;
    }
    std::uint64_t cumulative = 0;
    // Cumulative le boundaries at bucket upper edges: bucket i covers
    // [2^i, 2^{i+1}), so its le is 2^{i+1}. Emit up to the highest populated
    // bucket; +Inf carries the grand total.
    for (std::size_t i = 0; total != 0 && i <= highest; ++i) {
      cumulative += buckets[i];
      out += name + "_bucket{le=\"";
      append_double(out, std::ldexp(1.0, static_cast<int>(i) + 1));
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(total) + "\n";
    const LatencyHistogram::Summary s = histogram->summary();
    out += name + "_sum " + std::to_string(s.sum) + "\n";
    out += name + "_count " + std::to_string(total) + "\n";
  }
  return out;
}

void MetricsRegistry::write_json(const std::string& path,
                                 std::string_view name) const {
  const std::string doc = to_json(name);
  std::FILE* file = std::fopen(path.c_str(), "w");
  CL_CHECK_MSG(file != nullptr, "cannot open metrics output " << path);
  const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), file);
  std::fputc('\n', file);
  const int close_rc = std::fclose(file);
  CL_CHECK_MSG(written == doc.size() && close_rc == 0,
               "short write to metrics output " << path);
}

}  // namespace codelayout
