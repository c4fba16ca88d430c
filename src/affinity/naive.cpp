#include "affinity/naive.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "affinity/hierarchy_builder.hpp"
#include "support/check.hpp"

namespace codelayout {
namespace {

std::unordered_map<Symbol, std::vector<std::size_t>> occurrence_positions(
    const Trace& trimmed) {
  std::unordered_map<Symbol, std::vector<std::size_t>> occ;
  const auto symbols = trimmed.symbols();
  for (std::size_t t = 0; t < symbols.size(); ++t) {
    occ[symbols[t]].push_back(t);
  }
  return occ;
}

/// Does occurrence `i` of some symbol have a y-occurrence within footprint w?
/// Only the nearest y before and after need checking: widening the window can
/// only grow its footprint.
bool occurrence_satisfied(const Trace& trimmed, std::size_t i,
                          const std::vector<std::size_t>& y_positions,
                          std::uint32_t w) {
  const auto it =
      std::lower_bound(y_positions.begin(), y_positions.end(), i);
  if (it != y_positions.end() &&
      window_footprint(trimmed, i, *it) <= w) {
    return true;
  }
  if (it != y_positions.begin() &&
      window_footprint(trimmed, *(it - 1), i) <= w) {
    return true;
  }
  return false;
}

}  // namespace

std::uint64_t window_footprint(const Trace& trimmed, std::size_t i,
                               std::size_t j) {
  CL_CHECK(i <= j && j < trimmed.size());
  std::unordered_set<Symbol> distinct;
  const auto symbols = trimmed.symbols();
  for (std::size_t t = i; t <= j; ++t) distinct.insert(symbols[t]);
  return distinct.size();
}

bool naive_w_affine(const Trace& trimmed, Symbol x, Symbol y,
                    std::uint32_t w) {
  CL_CHECK(trimmed.is_trimmed());
  if (x == y) return true;
  const auto occ = occurrence_positions(trimmed);
  const auto xi = occ.find(x);
  const auto yi = occ.find(y);
  if (xi == occ.end() || yi == occ.end()) return false;
  for (std::size_t i : xi->second) {
    if (!occurrence_satisfied(trimmed, i, yi->second, w)) return false;
  }
  for (std::size_t j : yi->second) {
    if (!occurrence_satisfied(trimmed, j, xi->second, w)) return false;
  }
  return true;
}

std::vector<std::uint64_t> naive_affine_pairs_at(const Trace& trimmed,
                                                 std::uint32_t w) {
  std::vector<Symbol> syms;
  {
    std::unordered_set<Symbol> seen(trimmed.symbols().begin(),
                                    trimmed.symbols().end());
    syms.assign(seen.begin(), seen.end());
    std::sort(syms.begin(), syms.end());
  }
  std::vector<std::uint64_t> out;
  for (std::size_t a = 0; a < syms.size(); ++a) {
    for (std::size_t b = a + 1; b < syms.size(); ++b) {
      if (naive_w_affine(trimmed, syms[a], syms[b], w)) {
        out.push_back(detail::pair_key(syms[a], syms[b]));
      }
    }
  }
  return out;
}

AffinityHierarchy naive_hierarchy(const Trace& trace,
                                  const AffinityConfig& config) {
  CL_CHECK_MSG(config.valid(), "invalid affinity w grid");
  if (!trace.is_trimmed()) return naive_hierarchy(trace.trimmed(), config);
  std::vector<std::vector<std::uint64_t>> affine;
  for (const std::uint32_t w : config.w_values) {
    affine.push_back(naive_affine_pairs_at(trace, w));
  }
  return detail::build_hierarchy(trace, config.w_values, affine);
}

std::vector<std::vector<Symbol>> algorithm1_partition(const Trace& trimmed,
                                                      std::uint32_t w) {
  CL_CHECK(trimmed.is_trimmed());
  // First-appearance order stands in for the paper's random pick.
  std::vector<Symbol> order;
  {
    std::unordered_set<Symbol> seen;
    for (Symbol s : trimmed.symbols()) {
      if (seen.insert(s).second) order.push_back(s);
    }
  }
  std::vector<std::vector<Symbol>> groups;
  for (Symbol a : order) {
    bool placed = false;
    for (auto& group : groups) {
      bool all = true;
      for (Symbol b : group) {
        if (!naive_w_affine(trimmed, a, b, w)) {
          all = false;
          break;
        }
      }
      if (all) {
        group.push_back(a);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({a});
  }
  return groups;
}

}  // namespace codelayout
