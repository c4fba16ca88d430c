#include "affinity/analysis.hpp"

#include <algorithm>

#include "affinity/hierarchy_builder.hpp"
#include "support/check.hpp"
#include "support/flat_map.hpp"
#include "support/parallel.hpp"
#include "support/registry.hpp"
#include "support/trace_recorder.hpp"

namespace codelayout {
namespace {

/// Credit state of one pair. `lo`/`hi` follow the key ordering. `sat_*`
/// counts occurrences of that side having a partner occurrence with window
/// footprint <= w (Definition 3); `mark_*` is the last trace position of
/// that side already credited, which makes every occurrence count once.
struct PairRec {
  std::uint32_t sat_lo = 0;
  std::uint32_t sat_hi = 0;
  std::int64_t mark_lo = -1;
  std::int64_t mark_hi = -1;
};

/// The set of distinct symbols inside the current sliding window, with
/// per-symbol counts. Each symbol tracks its index in the dense `present_`
/// list, so expiry is an O(1) swap-pop instead of a linear find+erase. The
/// resulting iteration order is arbitrary, which is fine: the per-pair
/// credit updates in the scan are independent across partners.
class WindowSet {
 public:
  explicit WindowSet(Symbol space) : counts_(space, 0), pos_(space, kNone) {}

  void add(Symbol s) {
    if (counts_[s]++ == 0) {
      pos_[s] = static_cast<std::uint32_t>(present_.size());
      present_.push_back(s);
    }
  }

  void remove(Symbol s) {
    CL_DCHECK(counts_[s] > 0);
    if (--counts_[s] == 0) {
      const std::uint32_t i = pos_[s];
      const Symbol last = present_.back();
      present_[i] = last;
      pos_[last] = i;
      present_.pop_back();
      pos_[s] = kNone;
    }
  }

  [[nodiscard]] std::size_t distinct() const { return present_.size(); }
  [[nodiscard]] const std::vector<Symbol>& symbols() const { return present_; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> pos_;
  std::vector<Symbol> present_;
};

/// Per-symbol occurrence positions in one contiguous arena: per-symbol
/// counts are known up front, so every symbol's positions live in a
/// pre-sized slice (appended in time order, hence sorted) instead of one
/// heap vector per symbol.
class OccurrenceArena {
 public:
  OccurrenceArena(const Trace& trimmed, Symbol space)
      : offsets_(space + 1, 0), len_(space, 0), data_(trimmed.size()) {
    for (const Symbol s : trimmed.symbols()) ++offsets_[s + 1];
    for (Symbol s = 0; s < space; ++s) offsets_[s + 1] += offsets_[s];
  }

  void push(Symbol s, std::uint32_t position) {
    data_[offsets_[s] + len_[s]++] = position;
  }

  [[nodiscard]] std::span<const std::uint32_t> of(Symbol s) const {
    return {data_.data() + offsets_[s], len_[s]};
  }

  [[nodiscard]] std::uint32_t count(Symbol s) const { return len_[s]; }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> len_;
  std::vector<std::uint32_t> data_;
};

}  // namespace

std::vector<std::uint64_t> affine_pairs_at(const Trace& trimmed,
                                           std::uint32_t w) {
  CL_CHECK(trimmed.is_trimmed());
  CL_CHECK(w >= 2);
  const std::span<const Symbol> symbols = trimmed.symbols();
  const std::size_t n = symbols.size();
  const Symbol space = trimmed.symbol_space();

  // Two-pointer window [left, t]: the maximal range ending at t whose
  // footprint (distinct symbols, Definition 2) is <= w. An occurrence P@j is
  // within a footprint-w window of S@t exactly when j >= left(t); `left` is
  // monotone, so expired occurrences never re-enter.
  WindowSet window(space);
  std::size_t left = 0;

  OccurrenceArena positions(trimmed, space);
  FlatKeyMap<PairRec> pairs;

  for (std::size_t t = 0; t < n; ++t) {
    const Symbol s = symbols[t];
    window.add(s);
    while (window.distinct() > w) {
      window.remove(symbols[left]);
      ++left;
    }

    for (Symbol p : window.symbols()) {
      if (p == s) continue;
      PairRec& rec = pairs[detail::pair_key(s, p)];
      const bool s_is_lo = s < p;
      auto& sat_s = s_is_lo ? rec.sat_lo : rec.sat_hi;
      auto& mark_s = s_is_lo ? rec.mark_lo : rec.mark_hi;
      auto& sat_p = s_is_lo ? rec.sat_hi : rec.sat_lo;
      auto& mark_p = s_is_lo ? rec.mark_hi : rec.mark_lo;

      // This occurrence of s sees p before it within the window.
      if (mark_s < static_cast<std::int64_t>(t)) {
        ++sat_s;
        mark_s = static_cast<std::int64_t>(t);
      }
      // Every in-window occurrence of p not yet credited sees s after it.
      const auto occ = positions.of(p);
      const auto lo_bound = static_cast<std::uint32_t>(
          std::max<std::int64_t>(static_cast<std::int64_t>(left),
                                 mark_p + 1));
      const auto first =
          std::lower_bound(occ.begin(), occ.end(), lo_bound);
      const auto fresh = static_cast<std::uint32_t>(occ.end() - first);
      if (fresh > 0) {
        sat_p += fresh;
        mark_p = occ.back();
      }
    }
    positions.push(s, static_cast<std::uint32_t>(t));
  }

  std::vector<std::uint64_t> out;
  out.reserve(pairs.size());
  pairs.for_each([&](std::uint64_t key, const PairRec& rec) {
    const auto lo = static_cast<Symbol>(key >> 32);
    const auto hi = static_cast<Symbol>(key & 0xffffffffu);
    if (rec.sat_lo == positions.count(lo) &&
        rec.sat_hi == positions.count(hi)) {
      out.push_back(key);
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

AffinityHierarchy analyze_affinity(const Trace& trace,
                                   const AffinityConfig& config) {
  CL_CHECK_MSG(config.valid(), "invalid affinity w grid");
  const Trace trimmed = trace.is_trimmed() ? trace : trace.trimmed();
  const std::size_t grid = config.w_values.size();

  if (config.pool == nullptr || grid < 2) {
    return detail::build_hierarchy(
        trimmed, config.w_values,
        [&](std::uint32_t w) { return affine_pairs_at(trimmed, w); });
  }

  // Fan the independent per-w passes out over the shared pool and fold the
  // hierarchy merges in ascending-w order as results complete. Tasks are
  // claimed in *descending* w: per-w cost grows roughly linearly with w, so
  // the longest-processing-time order keeps the makespan near max(w) instead
  // of letting the heaviest pass start last. The fold consumes ascending w,
  // waiting per slot — the calling thread helps with unclaimed passes while
  // it waits, so this is safe even when invoked from inside a pool task.
  std::vector<std::vector<std::uint64_t>> results(grid);
  ParallelTaskSet tasks(config.pool, grid, [&](std::size_t task) {
    const std::size_t slot = grid - 1 - task;
    const std::uint32_t w = config.w_values[slot];
    CODELAYOUT_PHASE("affinity_w", "analysis", "analysis.affinity_w.wall_ns",
                     {"w", w});
    results[slot] = affine_pairs_at(trimmed, w);
  });

  MetricsRegistry& registry = MetricsRegistry::global();
  if (registry.enabled()) {
    registry.counter("affinity.grid.tasks").add(grid);
  }

  return detail::build_hierarchy(
      trimmed, config.w_values, [&](std::uint32_t w) {
        const auto it = std::lower_bound(config.w_values.begin(),
                                         config.w_values.end(), w);
        CL_CHECK(it != config.w_values.end() && *it == w);
        const auto slot =
            static_cast<std::size_t>(it - config.w_values.begin());
        tasks.wait(grid - 1 - slot);
        return std::move(results[slot]);
      });
}

}  // namespace codelayout
