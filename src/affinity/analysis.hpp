// Fast w-window affinity analysis (paper Sec. II-B).
//
// One pass over the trimmed trace yields the affine pair set of every w in
// the grid. After each access the pass reads the top w_max + 1 entries of an
// LRU stack and their last-access times. After touching s at time t, the
// maximal window ending at t with footprint (Definition 2) <= w holds
// exactly the top w stack entries, and it starts one past the last access
// of entry w + 1, or at 0 when the stack is shorter. So each partner p at
// stack depth d shares a window with this occurrence of s at every w >= d:
// the pass looks the pair up once per partner, at most w_max - 1 lookups
// per event, and updates every such w.
//
// Exactness. Per pair, w and side, the pass keeps k: the length of that
// side's credited occurrence prefix, or a dead mark. Credits arrive in time
// order (s's own occurrence when a partner is in its window, then p's
// uncredited occurrences inside the window), and an occurrence that is
// skipped can never be credited later, because windows only move right. So
// a side has credited all of its occurrences iff its credits form a
// gap-free prefix that reaches its count: the accessed side advances from c
// to c + 1 when k == c and dies otherwise; the partner side jumps to its
// count when its first uncredited occurrence lies in the window and dies
// otherwise. A pair is affine at w (Definition 3) iff both sides' k equal
// their occurrence counts. `affinity/naive.cpp` checks Definition 3
// directly and is the oracle for this pass.
//
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "affinity/hierarchy.hpp"
#include "trace/trace.hpp"

namespace codelayout {

class ThreadPool;

struct AffinityConfig {
  /// Window sizes to analyze, strictly ascending, each >= 2. The paper
  /// chooses w between 2 and 20; the default grid covers that range with 8
  /// levels, all computed by one pass.
  std::vector<std::uint32_t> w_values = {2, 3, 4, 6, 8, 12, 16, 20};

  /// Carries nothing: analyze_affinity is one serial pass and reads no
  /// pool. Kept only while perfbench/walk.cpp still assigns it.
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

/// The sorted affine pair set of every w in `w_values` (strictly ascending,
/// each >= 2), one per w, from one pass. Keys are (min << 32) | max.
std::vector<std::vector<std::uint64_t>> affine_pair_sets(
    const Trace& trimmed, std::span<const std::uint32_t> w_values);

/// The set of symbol pairs with w-window affinity: the one-w call of
/// affine_pair_sets.
std::vector<std::uint64_t> affine_pairs_at(const Trace& trimmed,
                                           std::uint32_t w);

/// Builds the full affinity hierarchy over the trace (trimmed internally).
AffinityHierarchy analyze_affinity(const Trace& trace,
                                   const AffinityConfig& config = {});

}  // namespace codelayout
