// Reuse distance and reuse time analysis (paper Sec. II-A).
//
// Reuse distance (LRU stack distance, Mattson et al. 1970) is computed with
// the Bennett–Kruskal method: a Fenwick tree over access timestamps counts
// the distinct symbols touched since the previous access — O(N log N) total.
// Reuse time is simply the gap between consecutive accesses to a symbol.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "trace/trace.hpp"

namespace codelayout {

/// Marks an access with no previous occurrence (a cold access).
inline constexpr std::uint64_t kColdReuse =
    std::numeric_limits<std::uint64_t>::max();

struct ReuseProfile {
  /// distance_histogram[d] = number of accesses with reuse distance d
  /// (distinct symbols between consecutive accesses, exclusive).
  std::vector<std::uint64_t> distance_histogram;
  /// time_histogram[t] = number of accesses with reuse time t (index gap
  /// between consecutive accesses to the same symbol; min 1).
  std::vector<std::uint64_t> time_histogram;
  std::uint64_t cold_accesses = 0;
  std::uint64_t total_accesses = 0;

  /// Fraction of (non-cold) accesses whose reuse distance exceeds `capacity`
  /// distinct symbols — the fully-associative LRU miss ratio at that
  /// capacity, cold misses included in the numerator.
  [[nodiscard]] double miss_ratio_at(std::uint64_t capacity) const;

  /// Mean reuse distance over non-cold accesses.
  [[nodiscard]] double mean_distance() const;
};

/// Computes both histograms in one pass.
ReuseProfile compute_reuse(const Trace& trace);

/// Per-access reuse distances (kColdReuse for cold accesses); used by
/// property tests to cross-check the histogram path.
std::vector<std::uint64_t> per_access_reuse_distances(const Trace& trace);

}  // namespace codelayout
