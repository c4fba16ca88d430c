// Set-associative LRU cache over 64-bit line ids.
//
// Line ids are global: co-running programs use disjoint id ranges so the
// shared cache sees two address spaces, exactly like two hyper-threads with
// distinct code segments.
//
// Three internal representations, selected by associativity at construction,
// with provably identical hit/miss/eviction sequences (all are exact true
// LRU with empty ways treated as least-recent):
//   * packed (assoc <= 4) — per set, the ways' 16-bit partial tags live in
//     one uint64_t probed with a SWAR zero-lane test, full tags (way-index
//     order) confirm the candidate lanes, and recency is a 2-bit-per-way
//     permutation byte updated through a precomputed promote table. A probe
//     is one lane load + one multiply-mask test + (on hit) one table lookup;
//     no per-way scan, no prefix rotation.
//   * packed wide (4 < assoc <= 16) — the sweep sibling: 8-bit partial tags,
//     eight lanes per uint64_t word (one word for 8-way, two for 16-way),
//     probed with the byte-lane SWAR zero test; recency is a 4-bit-per-
//     position permutation in one uint64_t, promoted arithmetically (locate
//     the way's nibble with a SWAR match, then splice below/above around
//     it). Geometry sweeps past 4-way keep O(words) probes instead of
//     falling back to the linear scan.
//   * generic (assoc > 16) — ways kept in recency order in a small
//     contiguous array; probe is a linear scan and a hit rotates the prefix.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/geometry.hpp"

namespace codelayout {

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheGeometry& geom);

  /// Touches `line`; returns true on hit. The set index is the line id
  /// modulo the set count (physical index bits above the line offset).
  bool access(std::uint64_t line) { return touch(line, true); }

  /// Installs without counting (prefetch fill). Returns true if already
  /// resident. On a hit this is a pure recency touch.
  bool prefill(std::uint64_t line) { return touch(line, false); }

  /// Residency probe: no recency update, no counting, no install.
  [[nodiscard]] bool contains(std::uint64_t line) const;

  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  /// Valid lines displaced by an install (counted for prefills too; filling
  /// an empty way is not an eviction).
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] double miss_ratio() const {
    return accesses_ ? static_cast<double>(misses_) /
                           static_cast<double>(accesses_)
                     : 0.0;
  }

  /// Zeroes the access/miss/eviction statistics; residency is untouched.
  void reset_stats() { accesses_ = misses_ = evictions_ = 0; }

  /// Empties every way. Intentionally preserves the counters: a flush
  /// models an invalidation event mid-measurement (context switch,
  /// self-modifying code), and the statistics cover the whole measurement
  /// window across flushes. Call reset_stats() to also restart the counts.
  void flush();

  [[nodiscard]] const CacheGeometry& geometry() const { return geom_; }

 private:
  enum class Repr : std::uint8_t { kPacked4, kPackedWide, kGeneric };

  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  // Broadcast/borrow masks for the 4x16-bit SWAR zero-lane test.
  static constexpr std::uint64_t kLaneLsb = 0x0001000100010001ull;
  static constexpr std::uint64_t kLaneMsb = 0x8000800080008000ull;
  // The 8x8-bit and 16x4-bit variants for the wide representation.
  static constexpr std::uint64_t kByteLsb = 0x0101010101010101ull;
  static constexpr std::uint64_t kByteMsb = 0x8080808080808080ull;
  static constexpr std::uint64_t kNibbleLsb = 0x1111111111111111ull;
  static constexpr std::uint64_t kNibbleMsb = 0x8888888888888888ull;
  static constexpr std::uint32_t kPackedMaxAssoc = 4;
  static constexpr std::uint32_t kPackedWideMaxAssoc = 16;

  /// 16-bit mix of the line id. Collisions are fine (the full tag confirms);
  /// the multiply spreads the low bits so same-set lines rarely share a lane
  /// pattern.
  static std::uint16_t partial_tag(std::uint64_t line) {
    return static_cast<std::uint16_t>((line * 0x9e3779b97f4a7c15ull) >> 48);
  }
  /// 8-bit sibling for the wide representation (more false candidates per
  /// probe, each costing only a confirming full-tag load).
  static std::uint8_t partial_tag8(std::uint64_t line) {
    return static_cast<std::uint8_t>((line * 0x9e3779b97f4a7c15ull) >> 56);
  }

  /// Position of `way`'s nibble in the wide recency permutation. The SWAR
  /// borrow can flag spurious nibbles above the true match, never below it,
  /// so the lowest flagged nibble is exact.
  static std::uint32_t wide_position(std::uint64_t perm, std::uint32_t way);
  /// The permutation after promoting the way at position `pos` to MRU:
  /// positions below it shift one deeper, positions above are untouched.
  static std::uint64_t wide_promote(std::uint64_t perm, std::uint32_t way,
                                    std::uint32_t pos);

  bool touch(std::uint64_t line, bool count);
  bool touch_packed(std::uint64_t line, bool count);
  bool touch_packed_wide(std::uint64_t line, bool count);
  bool touch_generic(std::uint64_t line, bool count);

  CacheGeometry geom_;
  std::uint64_t set_mask_;
  std::uint32_t assoc_;
  Repr repr_;
  std::uint32_t words_ = 0;  // packed wide: partial-tag words per set
  // Full tags. Packed: way-index order (recency lives in order_/order16_).
  // Generic: recency order (slot 0 is MRU). kEmpty marks an invalid way.
  std::vector<std::uint64_t> ways_;
  // Packed: per-set partial-tag lanes — one word of 4x16-bit lanes
  // (packed4), or `words_` words of 8x8-bit lanes (packed wide).
  std::vector<std::uint64_t> partial_;
  // Packed4 only: per-set recency permutation, 2 bits per position; position
  // p's bits hold the way at recency rank p (p = 0 is MRU, assoc-1 is LRU).
  std::vector<std::uint8_t> order_;
  // Packed wide only: the same permutation at 4 bits per position.
  std::vector<std::uint64_t> order16_;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace codelayout
