#include "affinity/analysis.hpp"

#include <algorithm>
#include <functional>

#include "affinity/hierarchy_builder.hpp"
#include "locality/lru_stack.hpp"
#include "support/check.hpp"
#include "support/flat_map.hpp"

namespace codelayout {
namespace {

/// Prefix state of a pair side that has skipped an occurrence for good.
constexpr std::uint32_t kDead = ~std::uint32_t{0};

/// Pair rows per storage chunk. Fixed-size chunks grow the state without
/// the transient copy and the up-to-2x slack of a doubling vector.
constexpr std::size_t kChunkRows = 1024;

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

std::vector<std::vector<std::uint64_t>> affine_pair_sets(
    const Trace& trimmed, std::span<const std::uint32_t> w_values) {
  CL_CHECK(trimmed.is_trimmed());
  CL_CHECK(!w_values.empty() && w_values.front() >= 2);
  CL_CHECK(std::adjacent_find(w_values.begin(), w_values.end(),
                              std::greater_equal<>()) == w_values.end());
  const std::span<const Symbol> symbols = trimmed.symbols();
  const std::size_t n = symbols.size();
  const Symbol space = trimmed.symbol_space();
  const std::size_t grid = w_values.size();
  const std::uint64_t w_max = w_values.back();

  // Entry w_max + 1 bounds the top slot's window; a trace never has more
  // than `space` distinct symbols. 64-bit, so a w near 2^32 cannot wrap.
  const auto depth =
      static_cast<std::size_t>(std::min<std::uint64_t>(w_max + 1, space));
  LruStack stack(space);
  std::vector<std::uint32_t> last(space, 0);  // last access per symbol
  std::vector<Symbol> top;                    // the top `depth` entries
  top.reserve(depth);
  std::vector<std::uint32_t> left(grid);

  OccurrenceArena positions(trimmed, space);
  // Per pair, a row holds 2 * grid prefix lengths: the lo side's per slot,
  // then the hi side's. Rows never move once allocated, so `index` maps a
  // pair key straight to its row.
  FlatKeyMap<std::uint32_t*> index;
  std::vector<std::vector<std::uint32_t>> chunks;
  std::size_t chunk_used = kChunkRows;  // rows taken in chunks.back()

  for (std::size_t t = 0; t < n; ++t) {
    const Symbol s = symbols[t];
    const auto now = static_cast<std::uint32_t>(t);
    stack.touch(s);
    last[s] = now;
    top.clear();
    stack.for_top(depth, [&](Symbol x) { top.push_back(x); });

    // The maximal footprint-<=w window ending at t holds exactly the top w
    // stack entries; it starts one past the last access of entry w + 1.
    for (std::size_t j = 0; j < grid; ++j) {
      left[j] = top.size() > w_values[j] ? last[top[w_values[j]]] + 1 : 0;
    }

    const std::uint32_t c = positions.count(s);
    const auto reach =
        static_cast<std::size_t>(std::min<std::uint64_t>(top.size(), w_max));
    std::size_t first_slot = 0;
    for (std::size_t d = 2; d <= reach; ++d) {
      while (w_values[first_slot] < d) ++first_slot;
      const Symbol p = top[d - 1];
      std::uint32_t*& row = index[detail::pair_key(s, p)];
      if (row == nullptr) {
        if (chunk_used == kChunkRows) {
          chunks.emplace_back(kChunkRows * 2 * grid);
          chunk_used = 0;
        }
        row = chunks.back().data() + chunk_used++ * 2 * grid;
      }
      std::uint32_t* const ks = row + (s < p ? 0 : grid);
      std::uint32_t* const kp = row + (s < p ? grid : 0);
      const std::uint32_t cp = positions.count(p);
      const std::span<const std::uint32_t> occ_p = positions.of(p);
      // Every slot whose window reaches depth d sees the pair. This
      // occurrence of s extends its credited prefix only if that prefix
      // was gap-free; p's uncredited occurrences are credited at once if
      // the first of them is inside the slot's window, and lost otherwise.
      for (std::size_t j = first_slot; j < grid; ++j) {
        ks[j] = ks[j] == c ? c + 1 : kDead;
        if (kp[j] < cp) kp[j] = occ_p[kp[j]] >= left[j] ? cp : kDead;
      }
    }
    positions.push(s, now);
  }

  // A pair is affine at a slot iff both sides credited every occurrence.
  std::vector<std::vector<std::uint64_t>> out(grid);
  index.for_each([&](std::uint64_t key, const std::uint32_t* k) {
    const std::uint32_t count_lo =
        positions.count(static_cast<Symbol>(key >> 32));
    const std::uint32_t count_hi =
        positions.count(static_cast<Symbol>(key & 0xffffffffu));
    for (std::size_t j = 0; j < grid; ++j) {
      if (k[j] == count_lo && k[grid + j] == count_hi) {
        out[j].push_back(key);
      }
    }
  });
  for (auto& pairs : out) std::sort(pairs.begin(), pairs.end());
  return out;
}

std::vector<std::uint64_t> affine_pairs_at(const Trace& trimmed,
                                           std::uint32_t w) {
  return std::move(affine_pair_sets(trimmed, {&w, 1}).front());
}

AffinityHierarchy analyze_affinity(const Trace& trace,
                                   const AffinityConfig& config) {
  CL_CHECK_MSG(config.valid(), "invalid affinity w grid");
  const Trace trimmed = trace.is_trimmed() ? trace : trace.trimmed();
  return detail::build_hierarchy(trimmed, config.w_values,
                                 affine_pair_sets(trimmed, config.w_values));
}

}  // namespace codelayout
