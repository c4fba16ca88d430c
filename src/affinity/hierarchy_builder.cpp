#include "affinity/hierarchy_builder.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "support/check.hpp"

namespace codelayout::detail {
namespace {

struct Partition {
  /// Current maximal group (node id) of each live symbol.
  std::unordered_map<Symbol, std::uint32_t> group_of;
  /// Live group ids in deterministic (first-occurrence) order.
  std::vector<std::uint32_t> live;
};

/// True when every cross pair between the two groups is affine.
bool complete_linkage(const AffinityGroup& a, const AffinityGroup& b,
                      const std::unordered_set<std::uint64_t>& affine) {
  for (Symbol x : a.members) {
    for (Symbol y : b.members) {
      if (!affine.contains(pair_key(x, y))) return false;
    }
  }
  return true;
}

}  // namespace

AffinityHierarchy build_hierarchy(
    const Trace& trimmed, std::span<const std::uint32_t> w_values,
    std::span<const std::vector<std::uint64_t>> affine_sets) {
  CL_CHECK(trimmed.is_trimmed());
  CL_CHECK(affine_sets.size() == w_values.size());

  // Leaf nodes: one singleton group per distinct symbol, at w = 1 every
  // block is its own group (Definition 5).
  std::unordered_map<Symbol, std::uint64_t> first_seen;
  std::unordered_map<Symbol, std::uint64_t> occurrences;
  const std::span<const Symbol> symbols = trimmed.symbols();
  for (std::uint64_t pos = 0; pos < symbols.size(); ++pos) {
    first_seen.try_emplace(symbols[pos], pos);
    ++occurrences[symbols[pos]];
  }

  std::vector<AffinityGroup> nodes;
  Partition part;
  {
    std::vector<Symbol> order;
    order.reserve(first_seen.size());
    for (const auto& [s, t] : first_seen) order.push_back(s);
    std::sort(order.begin(), order.end(), [&](Symbol a, Symbol b) {
      return first_seen.at(a) < first_seen.at(b);
    });
    for (Symbol s : order) {
      const auto id = static_cast<std::uint32_t>(nodes.size());
      nodes.push_back(AffinityGroup{.id = id,
                                    .formed_at_w = 1,
                                    .members = {s},
                                    .children = {},
                                    .first_occurrence = first_seen.at(s),
                                    .occurrences = occurrences.at(s)});
      part.group_of.emplace(s, id);
      part.live.push_back(id);
    }
  }

  for (std::size_t level = 0; level < w_values.size(); ++level) {
    const std::uint32_t w = w_values[level];
    const std::vector<std::uint64_t>& pair_list = affine_sets[level];
    if (pair_list.empty()) continue;
    const std::unordered_set<std::uint64_t> affine(pair_list.begin(),
                                                   pair_list.end());
    std::unordered_map<Symbol, std::vector<Symbol>> partners;
    for (const std::uint64_t key : pair_list) {
      const auto lo = static_cast<Symbol>(key >> 32);
      const auto hi = static_cast<Symbol>(key & 0xffffffffu);
      partners[lo].push_back(hi);
      partners[hi].push_back(lo);
    }

    // Greedy agglomeration in first-occurrence order ("the lower-level group
    // takes precedence"): each live group joins the earliest accumulating
    // group to which it is fully affine, else starts its own.
    std::vector<std::vector<std::uint32_t>> buckets;
    std::unordered_map<Symbol, std::size_t> bucket_of_symbol;
    for (std::uint32_t gid : part.live) {
      const AffinityGroup& g = nodes[gid];
      // Candidate buckets: those holding an affine partner of any member —
      // complete linkage can only succeed where at least one cross pair is
      // affine, so all other buckets are skipped without checking.
      std::unordered_set<std::size_t> cand_set;
      for (Symbol s : g.members) {
        const auto pit = partners.find(s);
        if (pit == partners.end()) continue;
        for (Symbol other : pit->second) {
          const auto it = bucket_of_symbol.find(other);
          if (it != bucket_of_symbol.end()) cand_set.insert(it->second);
        }
      }
      std::vector<std::size_t> candidates(cand_set.begin(), cand_set.end());
      std::sort(candidates.begin(), candidates.end());

      bool placed = false;
      for (std::size_t b : candidates) {
        bool ok = true;
        for (std::uint32_t member_gid : buckets[b]) {
          if (!complete_linkage(g, nodes[member_gid], affine)) {
            ok = false;
            break;
          }
        }
        if (ok) {
          buckets[b].push_back(gid);
          for (Symbol s : g.members) bucket_of_symbol[s] = b;
          placed = true;
          break;
        }
      }
      if (!placed) {
        buckets.push_back({gid});
        for (Symbol s : g.members) bucket_of_symbol[s] = buckets.size() - 1;
      }
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
        merged.occurrences += c.occurrences;
      }
      for (Symbol s : merged.members) part.group_of[s] = merged.id;
      next_live.push_back(merged.id);
      nodes.push_back(std::move(merged));
    }
    std::sort(next_live.begin(), next_live.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return nodes[a].first_occurrence < nodes[b].first_occurrence;
              });
    part.live = std::move(next_live);
  }

  return AffinityHierarchy(std::move(nodes), std::move(part.live));
}

}  // namespace codelayout::detail
