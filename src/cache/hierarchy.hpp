// Composable cache hierarchies (DESIGN.md §13).
//
// The paper evaluates one fixed geometry — a flat private 32 KB / 4-way /
// 64 B L1I — but modern SMT sharing happens at L2/L3. This header makes the
// hierarchy a first-class parameter:
//
//   * HierarchySpec — the declarative shape (private L1I → optional shared
//     L2 → memory) plus per-level latencies for AMAT accounting. Validated,
//     canonically encodable, hashable, and orderable, so it can ride inside
//     EvalKeys, response-cache keys, and the service wire protocol. The
//     default-constructed spec is exactly the paper's flat L1I: every layer
//     that threads a spec through defaults to it, keeping the golden suite
//     byte-identical.
//   * CacheLevel — one level of the materialized hierarchy: a SetAssocCache
//     plus a next_level pointer. access() chains misses downward and reports
//     the hit depth; prefill() on a resident line is a pure recency touch of
//     this level only (an L1 hit never generates downstream traffic);
//     contains() probes this level only. Per-level hit/miss/evict counters
//     and AMAT come from the underlying cache.
//   * CacheHierarchy — the runtime instantiation for one simulation: under a
//     flat spec all parties share the single L1 (the paper's SMT model);
//     with an L2 present each party gets a private L1 front and sharing
//     moves to the L2.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/geometry.hpp"
#include "cache/set_assoc.hpp"

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

/// One level of a materialized hierarchy (modeled on simCache: a cache, a
/// next_level pointer, chained miss handling, AMAT). Not copyable — levels
/// reference each other by pointer.
class CacheLevel {
 public:
  explicit CacheLevel(const CacheGeometry& geom, double hit_cycles = 1.0,
                      CacheLevel* next = nullptr)
      : cache_(geom), hit_cycles_(hit_cycles), next_(next) {}

  CacheLevel(const CacheLevel&) = delete;
  CacheLevel& operator=(const CacheLevel&) = delete;

  /// Touches `line`, chaining a miss to the next level. Returns the hit
  /// depth: 0 = hit here, 1 = missed here and hit (or installed from) the
  /// next level, and so on; a chain of n levels returns n for a fetch that
  /// went all the way to memory. Every traversed level installs the line.
  std::uint32_t access(std::uint64_t line) {
    if (cache_.access(line)) return 0;
    return next_ != nullptr ? 1 + next_->access(line) : 1;
  }

  /// Prefetch fill (uncounted). A resident line is a pure recency touch of
  /// this level, with no downstream traffic. A missing line installs here
  /// and prefills the chain below. Returns true if the line was resident
  /// here.
  bool prefill(std::uint64_t line) {
    if (cache_.prefill(line)) return true;
    if (next_ != nullptr) next_->prefill(line);
    return false;
  }

  /// Residency probe of this level only (no recency update, no chaining).
  [[nodiscard]] bool contains(std::uint64_t line) const {
    return cache_.contains(line);
  }

  // Per-level counters (counted accesses only; prefills are invisible).
  [[nodiscard]] std::uint64_t accesses() const { return cache_.accesses(); }
  [[nodiscard]] std::uint64_t hits() const {
    return cache_.accesses() - cache_.misses();
  }
  [[nodiscard]] std::uint64_t misses() const { return cache_.misses(); }
  [[nodiscard]] std::uint64_t evictions() const { return cache_.evictions(); }
  [[nodiscard]] double miss_ratio() const { return cache_.miss_ratio(); }

  /// Average memory access time seen at this level: hit latency plus the
  /// local miss ratio times the next level's AMAT (`memory_cycles` closes
  /// the recursion past the last level).
  [[nodiscard]] double amat(double memory_cycles) const {
    return hit_cycles_ +
           miss_ratio() * (next_ != nullptr ? next_->amat(memory_cycles)
                                            : memory_cycles);
  }

  [[nodiscard]] double hit_cycles() const { return hit_cycles_; }
  [[nodiscard]] CacheLevel* next() const { return next_; }
  [[nodiscard]] const CacheGeometry& geometry() const {
    return cache_.geometry();
  }
  [[nodiscard]] const SetAssocCache& cache() const { return cache_; }

  void reset_stats() { cache_.reset_stats(); }
  /// Empties this level only (counters preserved, like SetAssocCache).
  void flush() { cache_.flush(); }

 private:
  SetAssocCache cache_;
  double hit_cycles_;
  CacheLevel* next_;
};

/// The materialized cache state for one simulation over `parties` co-running
/// fetch streams. Flat spec: one shared L1 (every front(i) is the same
/// level) — exactly the paper's SMT-shared-L1I model. Multi-level spec:
/// private per-party L1 fronts all chained to one shared L2.
class CacheHierarchy {
 public:
  explicit CacheHierarchy(const HierarchySpec& spec, std::size_t parties = 1);

  /// The fetch-side entry level for `party`.
  [[nodiscard]] CacheLevel& front(std::size_t party) {
    return *fronts_[fronts_.size() == 1 ? 0 : party];
  }
  /// The shared L2, or nullptr for a flat hierarchy.
  [[nodiscard]] CacheLevel* shared_level() const { return l2_.get(); }
  [[nodiscard]] const HierarchySpec& spec() const { return spec_; }
  /// Number of distinct front levels (1 when flat — shared by all parties).
  [[nodiscard]] std::size_t front_count() const { return fronts_.size(); }

 private:
  HierarchySpec spec_;
  std::unique_ptr<CacheLevel> l2_;  // built first so fronts can chain to it
  std::vector<std::unique_ptr<CacheLevel>> fronts_;
};

}  // namespace codelayout
