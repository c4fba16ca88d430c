#include "locality/footprint.hpp"

#include <algorithm>
#include <cmath>
#include <ranges>

#include "support/check.hpp"
#include "support/radix_sort.hpp"
#include "support/registry.hpp"

namespace codelayout {

FootprintCurve FootprintCurve::compute(const Trace& trace) {
  // A gap count never exceeds the trace length, so 32-bit counts are exact
  // while it fits.
  CL_CHECK_MSG(trace.size() <= ~std::uint32_t{0},
               "footprint trace exceeds 2^32 events; widen the gap counts");
  FootprintBuilder builder(trace.symbol_space());
  builder.events(trace.symbols());
  return std::move(builder).finish();
}

FootprintCurve FootprintCurve::assemble(std::size_t n, double total_weight,
                                        std::vector<GapMass> masses) {
  FootprintCurve curve;
  curve.n_ = n;
  curve.total_weight_ = total_weight;
  curve.masses_ = std::move(masses);
  curve.masses_.shrink_to_fit();
  // missing(w) = sum_{g >= w} (g - w + 1) * gap_mass[g]; computed for all w
  // by two suffix accumulations, descending from w = n, keeping the state
  // at w = n + 1 - j * kStride.
  curve.checkpoints_.reserve(n / kStride + 1);
  Accumulator acc;
  curve.checkpoints_.push_back(acc);
  std::size_t top = n + 1;
  for (; top > kStride; top -= kStride) {
    acc = curve.replay(acc, top, top - kStride);
    curve.checkpoints_.push_back(acc);
  }
  // Every mass is consumed by w = 1: largest gap first, each in [1, n - 1].
  CL_CHECK(curve.replay(acc, top, 1).next == curve.masses_.size());
  return curve;
}

FootprintCurve::Accumulator FootprintCurve::replay(Accumulator acc,
                                                   std::size_t from,
                                                   std::size_t to) const {
  // Locals, not `acc`'s fields: the two sums stay in registers. A zero mass
  // adds 0.0 to the non-negative suffix count, which leaves it
  // bit-identical, so only the nonzero masses take part.
  const GapMass* const masses = masses_.data();
  const std::size_t size = masses_.size();
  double suffix_count = acc.suffix_count;
  double missing = acc.missing;
  std::uint32_t next = acc.next;
  for (std::size_t w = from; w-- > to;) {
    if (next < size && masses[next].gap == w) {
      suffix_count += static_cast<double>(masses[next].count);
      ++next;
    }
    missing += suffix_count;
  }
  return {suffix_count, missing, next};
}

FootprintCurve::Accumulator FootprintCurve::accumulate_to(
    std::size_t w) const {
  CL_DCHECK(w >= 1 && w <= n_);
  // The checkpoint at or above w, at most kStride - 1 steps away; the steps
  // from there repeat the assembly's additions in its order.
  const std::size_t j = (n_ + 1 - w) / kStride;
  return replay(checkpoints_[j], n_ + 1 - j * kStride, w);
}

std::pair<double, double> FootprintCurve::bracket(std::size_t w) const {
  CL_DCHECK(w < n_);
  const Accumulator upper = accumulate_to(w + 1);
  if (w == 0) return {0.0, value(1, upper)};
  return {value(w, replay(upper, w + 1, w)), value(w + 1, upper)};
}

std::vector<double> FootprintCurve::values() const {
  std::vector<double> fp(n_ + 1, 0.0);
  Accumulator acc;
  for (std::size_t w = n_; w >= 1; --w) {
    acc = replay(acc, w + 1, w);
    fp[w] = value(w, acc);
  }
  return fp;
}

std::size_t FootprintCurve::bytes() const {
  return masses_.capacity() * sizeof(GapMass) +
         checkpoints_.capacity() * sizeof(Accumulator);
}

FootprintBuilder::FootprintBuilder(Symbol space)
    : gap_mass_(kDenseGaps, 0),
      first_(space, ~std::uint64_t{0}),
      last_(space, ~std::uint64_t{0}) {}

// Inline: called out of line once per event, it halved the kernel's rate.
inline void FootprintBuilder::record(std::uint64_t gap) {
  if (gap == 0) return;
  if (gap < kDenseGaps) {
    gap_mass_[gap] += 1;
  } else {
    large_gaps_.push_back(static_cast<std::uint32_t>(gap));
  }
}

template <typename SymbolAt>
void FootprintBuilder::append(std::uint64_t count, SymbolAt symbol_at) {
  // Locals, not members: a store into last_ could alias a 64-bit member,
  // which would keep the position out of a register.
  std::uint64_t position = position_;
  double total_weight = total_weight_;
  std::uint64_t* const first = first_.data();
  std::uint64_t* const last = last_.data();
  for (std::uint64_t i = 0; i < count; ++i, ++position) {
    const Symbol s = symbol_at(i);
    if (last[s] == ~std::uint64_t{0}) {
      first[s] = position;
      total_weight += 1.0;
    } else {
      record(position - last[s] - 1);
    }
    last[s] = position;
  }
  if (count > 0) prev_ = symbol_at(count - 1);
  position_ = position;
  total_weight_ = total_weight;
}

void FootprintBuilder::events(std::span<const Symbol> symbols) {
  append(symbols.size(), [symbols](std::uint64_t i) { return symbols[i]; });
}

void FootprintBuilder::span(Symbol first, std::uint32_t count) {
  if (count == 0) return;
  CL_DCHECK(std::uint64_t{first} + count <= last_.size());
  ++spans_;
  // No single gap count can exceed the pre-trim event total, so this bound
  // keeps the 32-bit histogram cells exact (checked before any increment).
  raw_events_ += count;
  CL_CHECK_MSG(raw_events_ <= ~std::uint32_t{0},
               "footprint stream exceeds 2^32 events; widen the gap counts");
  // The span's leading symbol merges into the previous event when it repeats
  // it (exactly the event Trace::trimmed() would drop).
  const std::uint32_t lead = prev_ == first ? 1 : 0;
  collapsed_events_ += lead;
  append(count - lead, [start = first + lead](std::uint64_t i) {
    return static_cast<Symbol>(start + i);
  });
}

FootprintCurve FootprintBuilder::finish() && {
  const std::uint64_t n = position_;
  for (Symbol s = 0; s < first_.size(); ++s) {
    if (first_[s] == ~std::uint64_t{0}) continue;  // never streamed
    record(first_[s]);         // head gap
    record(n - 1 - last_[s]);  // tail gap
  }
  MetricsRegistry& registry = MetricsRegistry::global();
  if (registry.enabled()) {
    registry.counter("locality.footprint.builder_spans").add(spans_);
    registry.counter("locality.footprint.builder_collapsed_events")
        .add(collapsed_events_);
  }
  // The deferred gaps, largest first and run-length merged, then the dense
  // prefix's nonzero cells: every gap below kDenseGaps lives in the prefix,
  // so the two parts together are the sorted sparse masses.
  radix_sort(large_gaps_, [](std::uint32_t gap) { return ~gap; });
  std::vector<FootprintCurve::GapMass> masses;
  for (const std::uint32_t gap : large_gaps_) {
    if (!masses.empty() && masses.back().gap == gap) {
      ++masses.back().count;
    } else {
      masses.push_back({gap, 1});
    }
  }
  for (std::size_t g = gap_mass_.size(); g-- > 1;) {
    if (gap_mass_[g] != 0) {
      masses.push_back({static_cast<std::uint32_t>(g), gap_mass_[g]});
    }
  }
  return FootprintCurve::assemble(n, total_weight_, std::move(masses));
}

double FootprintCurve::at(double w) const {
  const double n = static_cast<double>(trace_length());
  if (w <= 0.0) return 0.0;
  if (w >= n) return max_footprint();
  const auto lo = static_cast<std::size_t>(w);
  const double frac = w - static_cast<double>(lo);
  const auto [lo_v, hi_v] = bracket(lo);
  return lo_v * (1.0 - frac) + hi_v * frac;
}

double FootprintCurve::fill_time(double capacity) const {
  if (capacity <= 0.0) return 0.0;
  if (capacity >= max_footprint()) return static_cast<double>(trace_length());
  // fp is monotone non-decreasing: binary search the first w with
  // fp(w) >= capacity, probing w = 0..n in lower_bound's order, then
  // interpolate within the step.
  const auto windows = std::views::iota(std::size_t{0}, n_ + 1);
  const std::size_t w_hi = *std::ranges::lower_bound(
      windows, capacity, {}, [this](std::size_t w) { return value(w); });
  if (w_hi == 0) return 0.0;
  const auto [lo_v, hi_v] = bracket(w_hi - 1);
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
