// Composable cache hierarchies (DESIGN.md §13).
//
// The paper evaluates one fixed geometry — a flat private 32 KB / 4-way /
// 64 B L1I — but modern SMT sharing happens at L2/L3. HierarchySpec makes the
// shape a first-class parameter: the declarative shape (private L1I →
// optional shared L2 → memory) plus per-level latencies for AMAT accounting.
// Validated, canonically encodable, hashable, and orderable, so it can ride
// inside EvalKeys, response-cache keys, and the service wire protocol. The
// default-constructed spec is exactly the paper's flat L1I: every layer that
// threads a spec through defaults to it, keeping the golden suite
// byte-identical.
//
// The spec is only a description. The simulator (cache/icache_sim.cpp)
// builds the caches it names and links them itself: under a flat spec all
// parties share the one L1 (the paper's SMT model); with an L2 each party
// fetches through a private L1 and sharing moves to the L2.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "cache/geometry.hpp"

namespace codelayout {

/// Parses the canonical "SIZE/ASSOC/LINE" geometry text (SIZE takes an
/// optional K/M suffix): "32K/4/64", "1M/16/64", "2048/2/32". Throws
/// ContractError on malformed text or an invalid geometry.
[[nodiscard]] CacheGeometry parse_geometry(std::string_view text);

struct HierarchySpec {
  /// The fetch-side front: private per hardware thread.
  CacheGeometry l1 = kL1I;
  /// Optional unified second level; shared across co-run parties when
  /// present. Must match the L1 line size (line ids are L1-line granular).
  std::optional<CacheGeometry> l2;
  /// Per-level access latencies (cycles) for AMAT accounting; they never
  /// influence the simulated hit/miss sequences.
  double l1_hit_cycles = 1.0;
  double l2_hit_cycles = 7.0;
  double memory_cycles = 35.0;

  [[nodiscard]] bool multi_level() const { return l2.has_value(); }

  /// Throws ContractError unless every level is a valid geometry, line
  /// sizes agree, the L2 is at least as large as the L1, and the latency
  /// ladder is finite and monotone.
  void validate() const;

  /// "32K/4/64" or "32K/4/64+l2=256K/8/64" — the text form --geometry/--l2
  /// compose and parse_hierarchy() reads back (latencies stay default).
  [[nodiscard]] std::string to_string() const;

  /// Canonical byte encoding (varint geometry triples + latency bit
  /// patterns). Stable across hosts of one endianness; the wire protocol
  /// embeds it verbatim and EvalKey hashing digests it.
  [[nodiscard]] std::string encode() const;
  /// Inverse of encode(); throws ContractError on malformed bytes.
  [[nodiscard]] static HierarchySpec decode(std::string_view bytes);

  /// FNV-1a over encode().
  [[nodiscard]] std::uint64_t hash() const;

  friend bool operator==(const HierarchySpec&, const HierarchySpec&) = default;
  friend auto operator<=>(const HierarchySpec&,
                          const HierarchySpec&) = default;
};

/// The paper's configuration: flat private L1I, no shared level.
inline const HierarchySpec kPaperHierarchy{};

/// Parses the to_string() form: "L1GEOM" or "L1GEOM+l2=L2GEOM". Throws
/// ContractError on malformed text (latencies keep their defaults).
[[nodiscard]] HierarchySpec parse_hierarchy(std::string_view text);

}  // namespace codelayout
