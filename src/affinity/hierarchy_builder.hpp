// Internal: constructs an AffinityHierarchy from per-w affine pair sets.
//
// Shared by the fast one-pass analysis and the naive Definition-3-exact
// reference so that the two differ only in how the pair relation is computed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "affinity/hierarchy.hpp"
#include "trace/trace.hpp"

namespace codelayout::detail {

inline std::uint64_t pair_key(Symbol a, Symbol b) {
  const Symbol lo = a < b ? a : b;
  const Symbol hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// `affine_sets[i]` holds the pair keys with w_values[i]-window affinity; the
/// relation must be monotone in w (a pair affine at w stays affine at every
/// larger w) for the result to be a well-formed hierarchy.
AffinityHierarchy build_hierarchy(
    const Trace& trimmed, std::span<const std::uint32_t> w_values,
    std::span<const std::vector<std::uint64_t>> affine_sets);

}  // namespace codelayout::detail
