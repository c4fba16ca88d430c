#include "affinity/analysis.hpp"

#include <algorithm>
#include <functional>

#include "affinity/hierarchy_builder.hpp"
#include "support/check.hpp"

namespace codelayout {
namespace {

/// Marks a symbol that has no dense id, an id below the top array, and the
/// end of a live list.
constexpr std::uint32_t kNoId = ~std::uint32_t{0};

/// Per-id occurrence positions in one contiguous arena: per-id counts are
/// known up front, so every id's positions live in a pre-sized slice
/// (appended in time order, hence sorted) instead of one heap vector each.
class OccurrenceArena {
 public:
  OccurrenceArena(std::span<const Symbol> symbols,
                  std::span<const std::uint32_t> id_of, std::size_t distinct)
      : offsets_(distinct + 1, 0), len_(distinct, 0), data_(symbols.size()) {
    for (const Symbol s : symbols) ++offsets_[id_of[s] + 1];
    for (std::size_t x = 0; x < distinct; ++x) offsets_[x + 1] += offsets_[x];
  }

  void push(std::uint32_t x, std::uint32_t position) {
    data_[offsets_[x] + len_[x]++] = position;
  }

  [[nodiscard]] std::span<const std::uint32_t> of(std::uint32_t x) const {
    return {data_.data() + offsets_[x], len_[x]};
  }

  [[nodiscard]] std::uint32_t count(std::uint32_t x) const { return len_[x]; }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> len_;
  std::vector<std::uint32_t> data_;
};

/// A pair's row, beside its prefix lengths: its ids, the owner (the later
/// symbol) first; the next row of each id's live list; and `lo`, below
/// which every slot is dead.
struct Row {
  std::uint32_t id[2];
  std::uint32_t next[2];
  std::uint32_t lo;
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
  // Positions and prefix lengths are 32-bit.
  CL_CHECK_MSG(n < kNoId, "trace of " << n
                                      << " events overflows the affinity "
                                         "pass's 32-bit counts");
  const std::size_t grid = w_values.size();
  const std::uint64_t w_max = w_values.back();

  // Dense ids in first-appearance order: of two symbols, the one with the
  // larger id first occurred later.
  std::vector<std::uint32_t> id_of(trimmed.symbol_space(), kNoId);
  std::vector<Symbol> symbol_of;
  for (const Symbol s : symbols) {
    if (id_of[s] == kNoId) {
      id_of[s] = static_cast<std::uint32_t>(symbol_of.size());
      symbol_of.push_back(s);
    }
  }
  const std::size_t distinct = symbol_of.size();

  // Each id's index among the top `depth` stack entries (kNoId when
  // deeper), and those entries, most recent first. Entry w_max + 1 bounds
  // the top slot's window; the stack never holds more than `distinct`
  // entries. 64-bit, so a w near 2^32 cannot wrap.
  const auto depth =
      static_cast<std::size_t>(std::min<std::uint64_t>(w_max + 1, distinct));
  // (Declared in this order: the other makes GCC 12 at -O3 report a false
  // -Wfree-nonheap-object on `index`.)
  std::vector<std::uint32_t> index(distinct, kNoId);
  std::vector<std::uint32_t> top(depth);
  std::size_t filled = 0;
  std::vector<std::uint32_t> last(distinct, 0);  // last access per id
  std::vector<std::uint32_t> left(grid);
  // The first slot whose window reaches stack depth d, for d <= depth.
  std::vector<std::uint32_t> first_slot(depth + 1);
  for (std::size_t d = 0, j = 0; d <= depth; ++d) {
    while (j < grid && w_values[j] < d) ++j;
    first_slot[d] = static_cast<std::uint32_t>(j);
  }

  // Id k owns min(w_max, k + 1) - 1 rows, made at its first occurrence.
  std::size_t row_count = 0;
  for (std::size_t k = 0; k < distinct; ++k) {
    row_count +=
        static_cast<std::size_t>(std::min<std::uint64_t>(w_max, k + 1)) - 1;
  }
  CL_CHECK_MSG(row_count < kNoId, row_count
                                      << " pair rows overflow the affinity "
                                         "pass's 32-bit row ids");
  // Each row's prefix lengths: the owner side's per slot, then the
  // partner side's.
  std::vector<Row> rows(row_count);
  std::vector<std::uint32_t> credit(row_count * 2 * grid, 0);
  std::vector<std::uint32_t> head(distinct, kNoId);  // each id's live list
  std::uint32_t made = 0;
  const auto slots = static_cast<std::uint32_t>(grid);  // lo of a dead row

  OccurrenceArena positions(symbols, id_of, distinct);

  for (std::size_t t = 0; t < n; ++t) {
    const std::uint32_t s = id_of[symbols[t]];
    const auto now = static_cast<std::uint32_t>(t);
    // Move s to the front of the top array.
    std::size_t at = index[s];
    if (at == kNoId) {
      if (filled < depth) {
        at = filled++;
      } else {
        at = depth - 1;
        index[top[at]] = kNoId;
      }
    }
    for (; at > 0; --at) {
      top[at] = top[at - 1];
      index[top[at]] = static_cast<std::uint32_t>(at);
    }
    top[0] = s;
    index[s] = 0;
    last[s] = now;

    // The maximal footprint-<=w window ending at t holds exactly the top w
    // stack entries; it starts one past the last access of entry w + 1.
    for (std::size_t j = 0; j < grid; ++j) {
      left[j] = filled > w_values[j] ? last[top[w_values[j]]] + 1 : 0;
    }

    const std::uint32_t c = positions.count(s);
    const auto reach =
        static_cast<std::size_t>(std::min<std::uint64_t>(filled, w_max));
    // Of the ids before s, only those within depth w_max at s's first
    // occurrence can be affine with s (analysis.hpp): s's rows are made
    // then, and each joins the front of s's list and of its partner's.
    if (c == 0 && reach > 1) {
      head[s] = made;
      for (std::size_t i = 1; i < reach; ++i, ++made) {
        const std::uint32_t p = top[i];
        rows[made] = {.id = {s, p},
                      .next = {i + 1 < reach ? made + 1 : kNoId, head[p]},
                      .lo = 0};
        head[p] = made;
      }
    }
    // Walk s's live list, unlinking the rows that died since s last walked
    // it; a pair whose partner is deeper than `reach` shares no window
    // with this occurrence.
    for (std::uint32_t* link = &head[s]; *link != kNoId;) {
      const std::uint32_t r = *link;
      Row& row = rows[r];
      const std::size_t side = row.id[1] == s;
      if (row.lo == slots) {
        *link = row.next[side];
        continue;
      }
      link = &row.next[side];
      const std::uint32_t p = row.id[side ^ 1];
      const std::uint32_t d = index[p];  // p's depth is d + 1
      if (d >= reach) continue;
      std::uint32_t* const k = credit.data() + std::size_t{r} * 2 * grid;
      std::uint32_t* const ks = k + side * grid;
      std::uint32_t* const kp = k + (side ^ 1) * grid;
      const std::uint32_t cp = positions.count(p);
      const std::uint32_t* const occ_p = positions.of(p).data();
      // Every live slot whose window reaches depth d + 1 sees the pair,
      // top slot first. This occurrence of s extends its credited prefix
      // only if that prefix was gap-free; p's uncredited occurrences are
      // credited at once if the first of them is inside the slot's window.
      // Either failure kills the slot and, the pair's affinity being
      // monotone in w, every slot below it.
      const std::uint32_t low = std::max(first_slot[d + 1], row.lo);
      for (std::uint32_t j = slots; j-- > low;) {
        if (ks[j] != c || (kp[j] < cp && occ_p[kp[j]] < left[j])) {
          row.lo = j + 1;
          break;
        }
        ks[j] = c + 1;
        kp[j] = cp;
      }
    }
    positions.push(s, now);
  }

  // A pair is affine at a live slot iff both sides credited every
  // occurrence.
  std::vector<std::vector<std::uint64_t>> out(grid);
  for (std::uint32_t r = 0; r < made; ++r) {
    const Row& row = rows[r];
    const std::uint32_t* const k = credit.data() + std::size_t{r} * 2 * grid;
    const std::uint32_t count_owner = positions.count(row.id[0]);
    const std::uint32_t count_partner = positions.count(row.id[1]);
    for (std::size_t j = row.lo; j < grid; ++j) {
      if (k[j] == count_owner && k[grid + j] == count_partner) {
        out[j].push_back(
            detail::pair_key(symbol_of[row.id[0]], symbol_of[row.id[1]]));
      }
    }
  }
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
  if (!trace.is_trimmed()) return analyze_affinity(trace.trimmed(), config);
  return detail::build_hierarchy(trace, config.w_values,
                                 affine_pair_sets(trace, config.w_values));
}

}  // namespace codelayout
