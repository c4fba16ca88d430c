#include "affinity/hierarchy_builder.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "support/check.hpp"

namespace codelayout::detail {

AffinityHierarchy build_hierarchy(
    const Trace& trimmed, std::span<const std::uint32_t> w_values,
    std::span<const std::vector<std::uint64_t>> affine_sets) {
  CL_CHECK(trimmed.is_trimmed());
  CL_CHECK(affine_sets.size() == w_values.size());
  constexpr std::uint32_t kNone = ~std::uint32_t{0};

  // Leaf nodes: one singleton group per distinct symbol, at w = 1 every
  // block is its own group (Definition 5). A leaf's id is its symbol's
  // dense id, in first-appearance order.
  std::vector<std::uint32_t> id_of(trimmed.symbol_space(), kNone);
  std::vector<AffinityGroup> nodes;
  const std::span<const Symbol> symbols = trimmed.symbols();
  for (std::uint64_t pos = 0; pos < symbols.size(); ++pos) {
    const Symbol s = symbols[pos];
    if (id_of[s] != kNone) continue;
    id_of[s] = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(AffinityGroup{.id = id_of[s],
                                  .formed_at_w = 1,
                                  .members = {s},
                                  .children = {},
                                  .first_occurrence = pos});
  }
  const std::size_t distinct = nodes.size();
  // Live group ids in deterministic (first-occurrence) order.
  std::vector<std::uint32_t> live(distinct);
  std::iota(live.begin(), live.end(), 0u);

  std::vector<std::uint32_t> offsets(distinct + 1);
  std::vector<std::uint32_t> partners;
  std::vector<std::uint32_t> bucket_of(distinct);
  std::vector<std::uint64_t> bucket_size;
  std::vector<std::uint64_t> affine_count;
  for (std::size_t level = 0; level < w_values.size(); ++level) {
    const std::uint32_t w = w_values[level];
    const std::vector<std::uint64_t>& pair_list = affine_sets[level];
    if (pair_list.empty()) continue;
    // The count below relies on each pair appearing once.
    CL_CHECK(std::adjacent_find(pair_list.begin(), pair_list.end(),
                                std::greater_equal<>()) == pair_list.end());

    // Each symbol's affine partners, as CSR slices over dense ids.
    const auto ends = [&](std::uint64_t key) {
      const auto lo = static_cast<Symbol>(key >> 32);
      const auto hi = static_cast<Symbol>(key & 0xffffffffu);
      CL_CHECK_MSG(lo < hi && hi < id_of.size() && id_of[lo] != kNone &&
                       id_of[hi] != kNone,
                   "affine pair (" << lo << ", " << hi
                                   << ") is not two symbols of the trace");
      return std::pair{id_of[lo], id_of[hi]};
    };
    std::fill(offsets.begin(), offsets.end(), 0);
    for (const std::uint64_t key : pair_list) {
      const auto [lo, hi] = ends(key);
      ++offsets[lo + 1];
      ++offsets[hi + 1];
    }
    for (std::size_t x = 0; x < distinct; ++x) offsets[x + 1] += offsets[x];
    partners.resize(offsets.back());
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const std::uint64_t key : pair_list) {
      const auto [lo, hi] = ends(key);
      partners[cursor[lo]++] = hi;
      partners[cursor[hi]++] = lo;
    }

    // Greedy agglomeration in first-occurrence order ("the lower-level group
    // takes precedence"): each live group joins the earliest accumulating
    // group to which it is fully affine, else starts its own. Pairs are
    // unique and groups disjoint, so a group is fully affine to a bucket iff
    // it has |group| x |bucket| affine pairs into it; only the buckets that
    // hold a partner of some member can qualify.
    std::vector<std::vector<std::uint32_t>> buckets;
    bucket_size.clear();
    affine_count.clear();
    std::fill(bucket_of.begin(), bucket_of.end(), kNone);
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t gid : live) {
      const std::vector<Symbol>& members = nodes[gid].members;
      candidates.clear();
      for (const Symbol s : members) {
        const std::uint32_t x = id_of[s];
        for (std::uint32_t i = offsets[x]; i < offsets[x + 1]; ++i) {
          const std::uint32_t b = bucket_of[partners[i]];
          if (b == kNone) continue;
          if (affine_count[b]++ == 0) candidates.push_back(b);
        }
      }
      std::uint32_t target = kNone;
      for (const std::uint32_t b : candidates) {
        if (affine_count[b] == members.size() * bucket_size[b]) {
          target = std::min(target, b);
        }
        affine_count[b] = 0;
      }
      if (target == kNone) {
        target = static_cast<std::uint32_t>(buckets.size());
        buckets.emplace_back();
        bucket_size.push_back(0);
        affine_count.push_back(0);
      }
      buckets[target].push_back(gid);
      bucket_size[target] += members.size();
      for (const Symbol s : members) bucket_of[id_of[s]] = target;
    }

    // Materialize merges.
    std::vector<std::uint32_t> next_live;
    for (const auto& bucket : buckets) {
      if (bucket.size() == 1) {
        next_live.push_back(bucket.front());
        continue;
      }
      AffinityGroup merged;
      merged.id = static_cast<std::uint32_t>(nodes.size());
      merged.formed_at_w = w;
      merged.children = bucket;
      merged.first_occurrence = ~std::uint64_t{0};
      for (std::uint32_t child : bucket) {
        const AffinityGroup& c = nodes[child];
        merged.members.insert(merged.members.end(), c.members.begin(),
                              c.members.end());
        merged.first_occurrence =
            std::min(merged.first_occurrence, c.first_occurrence);
      }
      next_live.push_back(merged.id);
      nodes.push_back(std::move(merged));
    }
    std::sort(next_live.begin(), next_live.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return nodes[a].first_occurrence < nodes[b].first_occurrence;
              });
    live = std::move(next_live);
  }

  return AffinityHierarchy(std::move(nodes), std::move(live));
}

}  // namespace codelayout::detail
