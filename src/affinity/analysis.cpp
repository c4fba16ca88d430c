#include "affinity/analysis.hpp"

#include <algorithm>
#include <bit>
#include <functional>

#include "affinity/hierarchy_builder.hpp"
#include "locality/lru_stack.hpp"
#include "support/check.hpp"

namespace codelayout {
namespace {

/// Prefix state of a pair side that has skipped an occurrence for good.
constexpr std::uint32_t kDead = ~std::uint32_t{0};

/// Marks a symbol that has no dense id (and an empty table slot).
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

/// The pair rows of the pass over dense ids. A row belongs to the pair's
/// later symbol, the one with the larger id: it is made at the owner's
/// first occurrence, one per stack partner there, in one contiguous slice
/// per owner, and slices follow id order. A row holds 2 * grid prefix
/// lengths: the owner side's per slot, then the partner side's. Id k has
/// min(w_max, k + 1) - 1 partners, so every array is sized once, up front.
class PairRows {
 public:
  /// The accessed id's and its partner's prefix lengths in a pair's row;
  /// null when the pair has no row.
  struct Sides {
    std::uint32_t* self = nullptr;
    std::uint32_t* partner = nullptr;
  };

  PairRows(std::size_t distinct, std::uint64_t w_max, std::size_t grid)
      : grid_(grid), owners_(distinct), stamps_(distinct) {
    std::size_t rows = 0;
    std::size_t slots = 0;
    for (std::size_t k = 0; k < distinct; ++k) {
      const auto partners = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(w_max, k + 1) - 1);
      const std::size_t table = std::bit_ceil(std::size_t{2} * partners);
      owners_[k] = {rows, slots, table - 1, partners};
      rows += partners;
      slots += table;
    }
    partner_.resize(rows);
    credit_.resize(rows * 2 * grid, 0);
    table_.resize(slots);
  }

  /// At `s`'s first occurrence: makes its rows, one per stack partner.
  void open(std::uint32_t s, std::span<const std::uint32_t> partners) {
    const Owner& owner = owners_[s];
    CL_DCHECK(owner.rows == partners.size());
    for (std::uint32_t i = 0; i < owner.rows; ++i) {
      const std::uint32_t p = partners[i];
      partner_[owner.row_begin + i] = p;
      std::size_t slot = hash(p) & owner.mask;
      while (table_[owner.table_begin + slot].partner != kNoId) {
        slot = (slot + 1) & owner.mask;
      }
      table_[owner.table_begin + slot] = {p, i};
    }
  }

  /// Marks `s`'s partners for the event at `now`, so find() reaches s's
  /// own rows without a probe.
  void stamp(std::uint32_t s, std::uint32_t now) {
    const Owner& owner = owners_[s];
    for (std::uint32_t i = 0; i < owner.rows; ++i) {
      stamps_[partner_[owner.row_begin + i]] = {now, i};
    }
  }

  /// The sides of the pair (s, p) for an event of `s` stamped at `now`.
  [[nodiscard]] Sides find(std::uint32_t s, std::uint32_t p,
                           std::uint32_t now) {
    if (p < s) {
      const Stamp stamp = stamps_[p];
      if (stamp.time != now) return {};
      std::uint32_t* const k = row(owners_[s].row_begin + stamp.index);
      return {k, k + grid_};
    }
    const Owner& owner = owners_[p];
    for (std::size_t slot = hash(s) & owner.mask;;
         slot = (slot + 1) & owner.mask) {
      const Slot entry = table_[owner.table_begin + slot];
      if (entry.partner == kNoId) return {};
      if (entry.partner == s) {
        std::uint32_t* const k = row(owner.row_begin + entry.index);
        return {k + grid_, k};
      }
    }
  }

  /// Calls fn(owner, partner, owner side, partner side) for every row,
  /// owners in id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t s = 0; s < owners_.size(); ++s) {
      const Owner& owner = owners_[s];
      for (std::size_t r = owner.row_begin; r < owner.row_begin + owner.rows;
           ++r) {
        const std::uint32_t* const k = credit_.data() + r * 2 * grid_;
        fn(s, partner_[r], k, k + grid_);
      }
    }
  }

 private:
  struct Owner {
    std::size_t row_begin;
    std::size_t table_begin;
    std::size_t mask;  ///< table slots - 1
    std::uint32_t rows;
  };
  struct Stamp {
    std::uint32_t time = kDead;  ///< event that last stamped it a partner
    std::uint32_t index = 0;     ///< its row in that event's owner slice
  };
  struct Slot {
    std::uint32_t partner = kNoId;
    std::uint32_t index = 0;  ///< row within the owner's slice
  };

  static std::size_t hash(std::uint32_t x) {
    return static_cast<std::size_t>((x * 0x9e3779b97f4a7c15ull) >> 32);
  }

  std::uint32_t* row(std::size_t r) { return credit_.data() + r * 2 * grid_; }

  std::size_t grid_;
  std::vector<Owner> owners_;
  std::vector<Stamp> stamps_;
  std::vector<std::uint32_t> partner_;  ///< per row
  std::vector<std::uint32_t> credit_;
  std::vector<Slot> table_;  ///< per owner, open addressing, load <= 1/2
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
  // Positions, prefix lengths and stamps are 32-bit, and no count may reach
  // the kDead mark.
  CL_CHECK_MSG(n < kDead, "trace of " << n
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

  // Entry w_max + 1 bounds the top slot's window; the stack never holds
  // more than `distinct` entries. 64-bit, so a w near 2^32 cannot wrap.
  const auto depth =
      static_cast<std::size_t>(std::min<std::uint64_t>(w_max + 1, distinct));
  LruStack stack(static_cast<Symbol>(distinct));
  std::vector<std::uint32_t> last(distinct, 0);  // last access per id
  std::vector<std::uint32_t> top;                // the top `depth` entries
  top.reserve(depth);
  std::vector<std::uint32_t> left(grid);

  OccurrenceArena positions(symbols, id_of, distinct);
  PairRows rows(distinct, w_max, grid);

  for (std::size_t t = 0; t < n; ++t) {
    const std::uint32_t s = id_of[symbols[t]];
    const auto now = static_cast<std::uint32_t>(t);
    stack.touch(s);
    last[s] = now;
    top.clear();
    stack.for_top(depth, [&](std::uint32_t x) { top.push_back(x); });

    // The maximal footprint-<=w window ending at t holds exactly the top w
    // stack entries; it starts one past the last access of entry w + 1.
    for (std::size_t j = 0; j < grid; ++j) {
      left[j] = top.size() > w_values[j] ? last[top[w_values[j]]] + 1 : 0;
    }

    const std::uint32_t c = positions.count(s);
    const auto reach =
        static_cast<std::size_t>(std::min<std::uint64_t>(top.size(), w_max));
    // Of the ids before s, only those within depth w_max at s's first
    // occurrence can be affine with s (analysis.hpp): s's rows are made
    // then, and a pair with no row is skipped.
    if (c == 0) rows.open(s, {top.data() + 1, reach - 1});
    rows.stamp(s, now);
    std::size_t first_slot = 0;
    for (std::size_t d = 2; d <= reach; ++d) {
      while (w_values[first_slot] < d) ++first_slot;
      const std::uint32_t p = top[d - 1];
      const auto [ks, kp] = rows.find(s, p, now);
      if (ks == nullptr) continue;
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
  rows.for_each([&](std::uint32_t owner, std::uint32_t partner,
                    const std::uint32_t* k_owner,
                    const std::uint32_t* k_partner) {
    const std::uint32_t count_owner = positions.count(owner);
    const std::uint32_t count_partner = positions.count(partner);
    for (std::size_t j = 0; j < grid; ++j) {
      if (k_owner[j] == count_owner && k_partner[j] == count_partner) {
        out[j].push_back(
            detail::pair_key(symbol_of[owner], symbol_of[partner]));
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
  if (!trace.is_trimmed()) return analyze_affinity(trace.trimmed(), config);
  return detail::build_hierarchy(trace, config.w_values,
                                 affine_pair_sets(trace, config.w_values));
}

}  // namespace codelayout
