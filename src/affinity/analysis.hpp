// Fast w-window affinity analysis (paper Sec. II-B).
//
// One pass over the trimmed trace yields the affine pair set of every w in
// the grid. The pass keeps the top w_max + 1 entries of the LRU stack in an
// array, most recent first, with each symbol's index in it and its last
// access time. After touching s at time t, the maximal window ending at t
// with footprint (Definition 2) <= w holds exactly the top w stack entries,
// and it starts one past the last access of entry w + 1, or at 0 when the
// stack is shorter. So a partner p at stack depth d shares a window with
// this occurrence of s at every w >= d.
//
// Rows. Let x occur first before y. If x is deeper than w in the stack at
// y's first occurrence, (x, y) is not w-affine: at x's last occurrence
// before that point no y has occurred yet, and the window from there to
// the next y, that first occurrence, holds as many distinct symbols as x's
// depth, more than w. So a pair gets a row only at its later symbol's
// first occurrence, for the symbols within depth w_max there: at most
// min(w_max, distinct) - 1 rows per symbol, all sized before the pass.
//
// Dead boundary. Definition 3 is monotone in w: a window of footprint <= w
// also has footprint <= w' for every w' > w, so a pair that fails at one w
// fails at every smaller one. Each row keeps `lo`, below which every slot
// is dead. An update walks the slots whose window reaches the partner's
// depth from the top down to `lo`; the first slot it kills moves `lo` past
// it, and the final check reads only the slots from `lo` up.
//
// Live lists. Each symbol links the rows it is in, on either side, whose
// `lo` is below the grid length. An event of s walks only s's list,
// unlinks the rows that died, and updates a row only when its other symbol
// is within depth w_max. Updates of different pairs are independent, so the
// list's order does not matter.
//
// Exactness. Per pair, live slot and side, the pass keeps k: the length of
// that side's credited occurrence prefix. Credits arrive in time order (s's
// own occurrence when a partner is in its window, then p's uncredited
// occurrences inside the window), and an occurrence that is skipped can
// never be credited later, because windows only move right. So a side has
// credited all of its occurrences iff its credits form a gap-free prefix
// that reaches its count: the accessed side advances from c to c + 1 when
// k == c and the slot dies otherwise; the partner side jumps to its count
// when its first uncredited occurrence lies in the window and the slot dies
// otherwise. A pair is affine at w (Definition 3) iff its slot is live and
// both sides' k equal their occurrence counts. `affinity/naive.cpp` checks
// Definition 3 directly and is the oracle for this pass.
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
