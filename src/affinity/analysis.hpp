// Fast w-window affinity analysis (paper Sec. II-B).
//
// For each window size w the analyzer makes one pass over the trimmed trace
// with a two-pointer sliding window that maintains the maximal range ending
// at the current access whose footprint (Definition 2) is at most w. The
// window never holds more than w distinct blocks, so each access does O(w)
// pair work: the accessed block credits every distinct partner in the window
// (partner-before), and every not-yet-credited in-window occurrence of each
// partner credits back (partner-after), deduplicated by per-pair position
// watermarks. The result is the exact Definition-3 relation — a pair is
// affine iff every occurrence of both sides has a partner occurrence within
// a footprint-w window — at O(N * w * log N) per w, far below the naive
// Algorithm 1; the paper reports w in [2, 20] keeps compilation time within
// a small multiple of the original build.
//
#pragma once

#include <cstdint>
#include <vector>

#include "affinity/hierarchy.hpp"
#include "trace/trace.hpp"

namespace codelayout {

class ThreadPool;

struct AffinityConfig {
  /// Window sizes to analyze, ascending. The paper chooses w between 2 and
  /// 20; the default grid covers that range with 8 passes.
  std::vector<std::uint32_t> w_values = {2, 3, 4, 6, 8, 12, 16, 20};

  /// Optional shared worker pool: the per-w passes are independent, so
  /// analyze_affinity fans them out and folds the hierarchy in ascending-w
  /// order as results complete. Non-owning; nullptr = serial. The result is
  /// bit-identical at any pool size (the passes are exact, not approximate).
  ThreadPool* pool = nullptr;

  /// Carries nothing (see AnalysisDispatch in trace/trace.hpp).
  AnalysisDispatch dispatch{};

  [[nodiscard]] bool valid() const {
    if (w_values.empty()) return false;
    for (std::size_t i = 0; i < w_values.size(); ++i) {
      if (w_values[i] < 2) return false;
      if (i && w_values[i] <= w_values[i - 1]) return false;
    }
    return true;
  }
};

/// The set of symbol pairs with w-window affinity, as computed by the fast
/// stack-based pass. Keys are (min << 32) | max.
std::vector<std::uint64_t> affine_pairs_at(const Trace& trimmed,
                                           std::uint32_t w);

/// Builds the full affinity hierarchy over the trace (trimmed internally).
AffinityHierarchy analyze_affinity(const Trace& trace,
                                   const AffinityConfig& config = {});

}  // namespace codelayout
