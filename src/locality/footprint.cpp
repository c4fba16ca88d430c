#include "locality/footprint.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/registry.hpp"

namespace codelayout {

FootprintCurve FootprintCurve::compute(const Trace& trace) {
  const std::size_t n = trace.size();
  const Symbol space = trace.symbol_space();
  if (n == 0) return assemble(0, 0.0, {});
  // A cell counts at most n gaps (one per position), so 32-bit cells are
  // exact while n fits.
  CL_CHECK_MSG(n <= ~std::uint32_t{0},
               "footprint trace exceeds 2^32 events; widen the gap counts");

  // gap_mass[g] counts the maximal gaps of exactly g window positions in
  // which a symbol is absent. A gap of g positions contributes (g - w + 1)
  // missing windows of length w <= g.
  std::vector<std::uint32_t> gap_mass(n + 1, 0);
  std::vector<std::uint64_t> last(space, ~std::uint64_t{0});
  std::vector<std::uint64_t> first(space, ~std::uint64_t{0});
  double total_weight = 0.0;

  const std::span<const Symbol> symbols = trace.symbols();
  for (std::size_t t = 0; t < symbols.size(); ++t) {
    const Symbol s = symbols[t];
    if (last[s] == ~std::uint64_t{0}) {
      first[s] = t;
      total_weight += 1.0;
    } else {
      const std::uint64_t gap = t - last[s] - 1;  // positions without s
      if (gap > 0) gap_mass[gap] += 1;
    }
    last[s] = t;
  }
  for (Symbol s = 0; s < space; ++s) {
    if (first[s] == ~std::uint64_t{0}) continue;  // never accessed
    const std::uint64_t head_gap = first[s];
    if (head_gap > 0) gap_mass[head_gap] += 1;
    const std::uint64_t tail_gap = n - 1 - last[s];
    if (tail_gap > 0) gap_mass[tail_gap] += 1;
  }

  return assemble(n, total_weight, gap_mass);
}

FootprintCurve FootprintCurve::assemble(
    std::size_t n, double total_weight,
    const std::vector<std::uint32_t>& gap_mass) {
  FootprintCurve curve;
  curve.fp_.assign(n + 1, 0.0);
  if (n == 0) return curve;
  CL_CHECK(gap_mass.size() == n + 1);
  // missing(w) = sum_{g >= w} (g - w + 1) * gap_mass[g]; computed for all w
  // by two suffix accumulations, descending from w = n.
  double suffix_count = 0.0;  // sum_{g >= w} gap_mass[g]
  double missing = 0.0;       // sum_{g >= w} (g - w + 1) gap_mass[g]
  curve.fp_[0] = 0.0;
  for (std::size_t w = n; w >= 1; --w) {
    suffix_count += static_cast<double>(gap_mass[w]);
    missing += suffix_count;
    const double windows = static_cast<double>(n - w + 1);
    curve.fp_[w] = total_weight - missing / windows;
  }
  return curve;
}

FootprintBuilder::FootprintBuilder(Symbol space)
    : gap_mass_(kDenseGaps, 0),
      first_(space, ~std::uint64_t{0}),
      last_(space, ~std::uint64_t{0}) {}

void FootprintBuilder::probe(Symbol s) {
  CL_DCHECK(s < last_.size());
  if (last_[s] == ~std::uint64_t{0}) {
    first_[s] = position_;
    total_weight_ += 1.0;
  } else {
    const std::uint64_t gap = position_ - last_[s] - 1;
    if (gap > 0) {
      if (gap < kDenseGaps) {
        gap_mass_[gap] += 1;
      } else {
        large_gaps_.push_back(static_cast<std::uint32_t>(gap));
      }
    }
  }
  last_[s] = position_;
  prev_ = s;
  ++position_;
}

void FootprintBuilder::span(Symbol first, std::uint32_t count) {
  if (count == 0) return;
  ++spans_;
  // No single gap count can exceed the pre-trim event total, so this bound
  // keeps the 32-bit histogram cells exact (checked before any increment).
  raw_events_ += count;
  CL_CHECK_MSG(raw_events_ <= ~std::uint32_t{0},
               "footprint stream exceeds 2^32 events; widen the gap counts");
  // The span's leading symbol merges into the previous event when it repeats
  // it (exactly the event Trace::trimmed() would drop).
  const bool skip_lead = prev_ == first;
  if (skip_lead) ++collapsed_events_;
  for (std::uint32_t l = skip_lead ? 1 : 0; l < count; ++l) probe(first + l);
}

FootprintCurve FootprintBuilder::finish() && {
  const std::uint64_t n = position_;
  // The dense prefix already is the final histogram below kDenseGaps (every
  // index above n holds zero mass — no gap exceeds n - 1); widen it to the
  // full gap range and fold in the deferred large gaps and boundary gaps.
  gap_mass_.resize(n + 1, 0);
  for (const std::uint32_t gap : large_gaps_) gap_mass_[gap] += 1;
  for (Symbol s = 0; s < first_.size(); ++s) {
    if (first_[s] == ~std::uint64_t{0}) continue;  // never streamed
    const std::uint64_t head_gap = first_[s];
    if (head_gap > 0) gap_mass_[head_gap] += 1;
    const std::uint64_t tail_gap = n - 1 - last_[s];
    if (tail_gap > 0) gap_mass_[tail_gap] += 1;
  }
  MetricsRegistry& registry = MetricsRegistry::global();
  if (registry.enabled()) {
    registry.counter("locality.footprint.builder_spans").add(spans_);
    registry.counter("locality.footprint.builder_collapsed_events")
        .add(collapsed_events_);
  }
  return FootprintCurve::assemble(n, total_weight_, gap_mass_);
}

double FootprintCurve::at(double w) const {
  const double n = static_cast<double>(trace_length());
  if (w <= 0.0) return 0.0;
  if (w >= n) return fp_.back();
  const auto lo = static_cast<std::size_t>(w);
  const double frac = w - static_cast<double>(lo);
  return fp_[lo] * (1.0 - frac) + fp_[lo + 1] * frac;
}

double FootprintCurve::fill_time(double capacity) const {
  if (capacity <= 0.0) return 0.0;
  if (capacity >= fp_.back()) return static_cast<double>(trace_length());
  // fp_ is monotone non-decreasing: binary search the first w with
  // fp(w) >= capacity, then interpolate within the step.
  const auto it = std::lower_bound(fp_.begin(), fp_.end(), capacity);
  const auto w_hi = static_cast<std::size_t>(it - fp_.begin());
  if (w_hi == 0) return 0.0;
  const double lo_v = fp_[w_hi - 1];
  const double hi_v = fp_[w_hi];
  const double frac = hi_v > lo_v ? (capacity - lo_v) / (hi_v - lo_v) : 0.0;
  return static_cast<double>(w_hi - 1) + frac;
}

double FootprintCurve::derivative(double w) const {
  const double n = static_cast<double>(trace_length());
  if (n < 1.0) return 0.0;
  // Central difference with a window that widens at large w, where the curve
  // is flat and the per-step difference underflows.
  const double h = std::max(1.0, w * 0.01);
  const double lo = std::clamp(w - h, 0.0, n);
  const double hi = std::clamp(w + h, 0.0, n);
  if (hi <= lo) return 0.0;
  return (at(hi) - at(lo)) / (hi - lo);
}

}  // namespace codelayout
