#include "locality/reuse.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace codelayout {
namespace {

/// Fenwick tree over access positions; marks each symbol's latest access.
class Fenwick {
 public:
  explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}

  void add(std::size_t pos, int delta) {
    for (std::size_t i = pos + 1; i < tree_.size(); i += i & (~i + 1)) {
      tree_[i] += delta;
    }
  }

  /// Sum of marks in positions [0, pos).
  [[nodiscard]] std::int64_t prefix(std::size_t pos) const {
    std::int64_t s = 0;
    for (std::size_t i = pos; i > 0; i -= i & (~i + 1)) s += tree_[i];
    return s;
  }

  /// add(from, -1) and add(to, +1) fused: both ancestor walks ascend, so
  /// once they merge every remaining update cancels (+1 with -1) and the
  /// shared ancestors are never touched. Cancellation is exact integer
  /// arithmetic, so queries see the same tree as two separate adds.
  void move_mark(std::size_t from, std::size_t to) {
    std::size_t i = from + 1;
    std::size_t j = to + 1;
    const std::size_t n = tree_.size();
    // The smaller index steps; i < j implies i < n (else j > i >= n and the
    // loop condition already failed), and symmetrically for j.
    while ((i < n || j < n) && i != j) {
      if (i < j) {
        tree_[i] -= 1;
        i += i & (~i + 1);
      } else {
        tree_[j] += 1;
        j += j & (~j + 1);
      }
    }
  }

 private:
  std::vector<std::int64_t> tree_;
};

/// Calls on_access(distance, time) once per event, in order. Tracks the
/// live mark count in a scalar instead of querying the Fenwick total:
/// exactly one mark exists per seen symbol (at its latest access), so
/// `active` is the same integer marks.total() would return, without the
/// O(log n) walk.
template <typename PerAccess>
void scan_reuse(const Trace& trace, PerAccess&& on_access) {
  const std::span<const Symbol> symbols = trace.symbols();
  Fenwick marks(trace.size());
  std::vector<std::uint64_t> last(trace.symbol_space(), kColdReuse);
  std::uint64_t active = 0;  // distinct symbols seen == marks in the tree

  for (std::size_t t = 0; t < symbols.size(); ++t) {
    const Symbol s = symbols[t];
    const std::uint64_t prev = last[s];
    if (prev == kColdReuse) {
      marks.add(t, +1);
      ++active;
      last[s] = t;
      on_access(kColdReuse, kColdReuse);
      continue;
    }
    // Distinct symbols accessed strictly after prev: marks in (prev, t).
    const std::uint64_t distance =
        active - static_cast<std::uint64_t>(marks.prefix(prev + 1));
    marks.move_mark(prev, t);
    last[s] = t;
    on_access(distance, t - prev);
  }
}

}  // namespace

double ReuseProfile::miss_ratio_at(std::uint64_t capacity) const {
  if (total_accesses == 0) return 0.0;
  std::uint64_t misses = cold_accesses;
  for (std::uint64_t d = capacity; d < distance_histogram.size(); ++d) {
    misses += distance_histogram[d];
  }
  return static_cast<double>(misses) / static_cast<double>(total_accesses);
}

double ReuseProfile::mean_distance() const {
  std::uint64_t n = 0;
  double sum = 0.0;
  for (std::uint64_t d = 0; d < distance_histogram.size(); ++d) {
    n += distance_histogram[d];
    sum += static_cast<double>(d) * static_cast<double>(distance_histogram[d]);
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

ReuseProfile compute_reuse(const Trace& trace) {
  ReuseProfile profile;
  profile.total_accesses = trace.size();
  scan_reuse(trace, [&](std::uint64_t distance, std::uint64_t time) {
    if (distance == kColdReuse) {
      ++profile.cold_accesses;
      return;
    }
    if (profile.distance_histogram.size() <= distance) {
      profile.distance_histogram.resize(distance + 1, 0);
    }
    ++profile.distance_histogram[distance];
    if (profile.time_histogram.size() <= time) {
      profile.time_histogram.resize(time + 1, 0);
    }
    ++profile.time_histogram[time];
  });
  return profile;
}

std::vector<std::uint64_t> per_access_reuse_distances(const Trace& trace) {
  std::vector<std::uint64_t> out;
  out.reserve(trace.size());
  scan_reuse(trace, [&](std::uint64_t distance, std::uint64_t) {
    out.push_back(distance);
  });
  return out;
}

}  // namespace codelayout
