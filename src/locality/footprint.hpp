// All-window average footprint (paper Sec. II-A, Definition 2; Xiang et al.
// PPoPP'11 / HOTL ASPLOS'13).
//
// The footprint fp(w) is the average amount of distinct code touched over
// all length-w windows of the trace. It is computed exactly for every window
// length in O(N) after a single pass that gathers reuse-time and boundary
// histograms:
//
//   fp(w) = M - (1/(n-w+1)) * sum_e weight(e) * (#windows of length w
//                                                 that do not contain e)
//
// where the per-symbol missing-window count decomposes into the symbol's
// reuse-time gaps plus the two boundary gaps. The curve is monotonically
// non-decreasing and concave, which the property tests assert.
//
// Storage: the nonzero gap masses and the state of the descending
// accumulation at every kStride-th window length, a few percent of n + 1
// doubles. fp(w) is computed on demand by repeating, from the checkpoint at
// or above w, the same double additions in the same order, so every value
// is bit-identical to a dense assembly's (DESIGN.md §16).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace codelayout {

class FootprintCurve {
 public:
  /// Computes fp(w) for w = 0..trace length, in distinct symbols (every
  /// symbol weighs 1, as the paper approximates).
  static FootprintCurve compute(const Trace& trace);

  /// fp at (possibly fractional) window length, linearly interpolated and
  /// clamped to [0, n].
  [[nodiscard]] double at(double w) const;

  /// Smallest window length whose footprint reaches `capacity` (the fill
  /// time ft(c) of HOTL); returns trace length when never reached.
  [[nodiscard]] double fill_time(double capacity) const;

  /// Numerical derivative dfp/dw at window length w — the HOTL miss-ratio
  /// read-out when evaluated at w = ft(cache capacity).
  [[nodiscard]] double derivative(double w) const;

  [[nodiscard]] std::size_t trace_length() const { return n_; }

  /// Total weight of all distinct symbols = fp(n).
  [[nodiscard]] double max_footprint() const { return value(n_); }

  /// fp(w) for w = 0..n, replayed in one O(n) pass (checksums and read-outs;
  /// the model reads single values through at() and fill_time()).
  [[nodiscard]] std::vector<double> values() const;

  /// Heap bytes the curve holds: its gap masses and checkpoints.
  [[nodiscard]] std::size_t bytes() const;

 private:
  friend class FootprintBuilder;

  /// `count` maximal gaps of exactly `gap` window positions.
  struct GapMass {
    std::uint32_t gap;
    std::uint32_t count;
  };

  /// The descending accumulation's state at window length w: sums over the
  /// gap lengths g >= w.
  struct Accumulator {
    double suffix_count = 0.0;  ///< sum_{g >= w} gap_mass[g]
    double missing = 0.0;       ///< sum_{g >= w} (g - w + 1) gap_mass[g]
    std::uint32_t next = 0;     ///< first entry of masses_ with gap < w
  };

  /// Window lengths between checkpoints: a value costs at most kStride - 1
  /// replayed steps; the checkpoints cost 24 bytes per kStride positions.
  static constexpr std::size_t kStride = 64;

  /// Curve assembly over FootprintBuilder's gap masses (exact counts of
  /// symbols per gap length; nonzero, largest gap first, every gap in
  /// [1, n - 1]): runs the two descending suffix accumulations once,
  /// keeping every kStride-th state.
  static FootprintCurve assemble(std::size_t n, double total_weight,
                                 std::vector<GapMass> masses);

  /// The accumulation at window length `to`, from `acc` at `from` >= `to`:
  /// the pass's steps from w = from - 1 down to w = to.
  [[nodiscard]] Accumulator replay(Accumulator acc, std::size_t from,
                                   std::size_t to) const;
  /// The accumulation at w (1 <= w <= n), replayed from the checkpoint at
  /// or above it.
  [[nodiscard]] Accumulator accumulate_to(std::size_t w) const;
  /// fp(w) from the accumulation at w (1 <= w <= n).
  [[nodiscard]] double value(std::size_t w, const Accumulator& acc) const {
    return total_weight_ - acc.missing / static_cast<double>(n_ - w + 1);
  }
  [[nodiscard]] double value(std::size_t w) const {
    return w == 0 ? 0.0 : value(w, accumulate_to(w));
  }
  /// fp(w) and fp(w + 1) for w < n, from one replay.
  [[nodiscard]] std::pair<double, double> bracket(std::size_t w) const;

  std::size_t n_ = 0;  ///< trace length
  double total_weight_ = 0.0;
  std::vector<GapMass> masses_;  ///< nonzero gap masses, largest gap first
  /// checkpoints_[j] = the accumulation at w = n + 1 - j * kStride.
  std::vector<Accumulator> checkpoints_;
};

/// The footprint kernel: it gathers the gap masses of a symbol stream, one
/// window position at a time, and finish() assembles the curve.
/// FootprintCurve::compute feeds it a trace's events as given.
/// Callers that can describe the stream as consecutive-symbol spans feed it
/// the *trimmed* trace (Definition 1) without materializing it: perfmodel's
/// solo profiles feed cache-line fetch streams straight from the fetch
/// plan's per-block line spans. There, consecutive duplicate symbols
/// collapse to one window position exactly as Trace::trimmed() would drop
/// them, so the finished curve is bit-identical to FootprintCurve::compute
/// over the trimmed flat trace.
///
///   FootprintBuilder builder(space);
///   for (block : block_trace.symbols())
///     builder.span(plan.first_line, plan.line_count);
///   FootprintCurve curve = std::move(builder).finish();
class FootprintBuilder {
 public:
  /// `space` bounds the symbol values that will be streamed (= dense symbol
  /// space of the virtual trace).
  explicit FootprintBuilder(Symbol space);

  /// Appends each of `symbols` as its own window position, even one that
  /// repeats the one before it. The caller keeps the stream below 2^32
  /// events.
  void events(std::span<const Symbol> symbols);

  /// Appends the `count` consecutive symbols [first, first + count): the
  /// line sequence of one code block execution. The leading symbol merges
  /// into the previous window position when it repeats it.
  void span(Symbol first, std::uint32_t count);

  /// Trimmed window positions streamed so far (the virtual trace length).
  [[nodiscard]] std::uint64_t positions() const { return position_; }

  /// Seals the stream: boundary gaps plus the suffix assembly over the
  /// sparse gap masses. Records the `locality.footprint.builder_spans` /
  /// `builder_collapsed_events` registry counters when metrics are enabled.
  [[nodiscard]] FootprintCurve finish() &&;

 private:
  /// Dense-histogram span: gaps below this land in a 128 KiB cache-resident
  /// array (the overwhelming majority — reuse gaps cluster near the working
  /// set size); larger ones defer to a side list sorted and merged at
  /// finish(). The histogram update is the kernel's hot spot, and keeping it
  /// out of a trace-length-sized array keeps the stream compute-bound.
  static constexpr std::uint64_t kDenseGaps = 32768;

  /// Counts one gap of `gap` positions (none when 0).
  void record(std::uint64_t gap);
  /// Appends symbol_at(0), ..., symbol_at(count - 1), one window position
  /// each.
  template <typename SymbolAt>
  void append(std::uint64_t count, SymbolAt symbol_at);

  std::uint64_t position_ = 0;
  std::uint64_t prev_ = ~std::uint64_t{0};  ///< last streamed symbol
  std::uint64_t raw_events_ = 0;  ///< pre-trim events, bounds any gap count
  double total_weight_ = 0.0;
  std::uint64_t spans_ = 0;
  std::uint64_t collapsed_events_ = 0;
  /// Exact counts; 32-bit cells halve the histogram's random-write traffic
  /// and cannot overflow while raw_events_ fits (checked per span).
  std::vector<std::uint32_t> gap_mass_;    ///< gaps < kDenseGaps
  std::vector<std::uint32_t> large_gaps_;  ///< gaps >= kDenseGaps, unmerged
  std::vector<std::uint64_t> first_;
  std::vector<std::uint64_t> last_;
};

}  // namespace codelayout
