// Set-associative LRU cache over 64-bit line ids.
//
// Line ids are global: co-running programs use disjoint id ranges so the
// shared cache sees two address spaces, exactly like two hyper-threads with
// distinct code segments.
//
// A cache has one operation, access(line): it touches the line, installs it
// on a miss, and says whether it hit. There are no counters (the simulators
// count what they need from the access results), so a prefetch fill is the
// same state change as an access.
//
// Three internal representations, selected by associativity at construction,
// with provably identical hit/miss sequences (all are exact true LRU with
// empty ways treated as least-recent):
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
//     it). Geometry sweeps past 4-way and the 8-way L2 keep O(words)
//     probes instead of falling back to the linear scan.
//   * generic (assoc > 16) — ways kept in recency order in a small
//     contiguous array; probe is a linear scan and a hit rotates the prefix.
//
// The packed-4 probe/promote routine is exposed below as packed4::touch so the
// co-run engine's flat L1 front (cache/icache_sim.cpp) runs the same
// transcription with the associativity fixed at 4.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "cache/geometry.hpp"

namespace codelayout {

/// One packed set of at most four ways: the ways' 16-bit partial tags in one
/// word, their full tags in way-index order, and a 2-bit-per-position
/// recency permutation (position 0 is MRU). Every routine takes the set's
/// associativity as a parameter, so a caller that fixes it at 4 gets it
/// folded at compile time.
namespace packed4 {

inline constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
// Broadcast/borrow masks for the 4x16-bit SWAR zero-lane test.
inline constexpr std::uint64_t kLaneLsb = 0x0001000100010001ull;
inline constexpr std::uint64_t kLaneMsb = 0x8000800080008000ull;

// Positions 0..3 hold ways 0..3: a valid permutation for any assoc <= 4
// (positions >= assoc never matter — their ways are never promoted, so they
// stay at the tail).
inline constexpr std::uint8_t kIdentityOrder = 0b11'10'01'00;

// kPromote[order * 4 + way]: the recency permutation after promoting `way`
// to MRU — the way moves to position 0, everything previously above it
// shifts one position deeper, relative order otherwise preserved. Entries
// for non-permutation order bytes are never indexed (sets keep valid
// permutations from construction on).
constexpr std::array<std::uint8_t, 256 * 4> make_promote_table() {
  std::array<std::uint8_t, 256 * 4> table{};
  for (unsigned order = 0; order < 256; ++order) {
    for (unsigned way = 0; way < 4; ++way) {
      unsigned out = way;
      unsigned shift = 2;
      for (unsigned p = 0; p < 4 && shift < 8; ++p) {
        const unsigned w = (order >> (2 * p)) & 3;
        if (w == way) continue;
        out |= w << shift;
        shift += 2;
      }
      table[order * 4 + way] = static_cast<std::uint8_t>(out);
    }
  }
  return table;
}

inline constexpr std::array<std::uint8_t, 256 * 4> kPromote =
    make_promote_table();

/// 16-bit mix of the line id. Collisions are fine (the full tag confirms);
/// the multiply spreads the low bits so same-set lines rarely share a lane
/// pattern.
inline std::uint16_t partial_tag(std::uint64_t line) {
  return static_cast<std::uint16_t>((line * 0x9e3779b97f4a7c15ull) >> 48);
}

/// The way holding `line`, or `assoc` when it is not resident. SWAR
/// zero-lane test: a lane of `diff` is zero iff that way's partial tag
/// matches. Borrow propagation can flag spurious lanes above a true match;
/// never the reverse (a zero lane is always flagged), and every candidate is
/// confirmed against the full tag, so false positives only cost a load.
inline std::uint32_t find(const std::uint64_t* tags, std::uint64_t lanes,
                          std::uint64_t line, std::uint32_t assoc) {
  const std::uint64_t diff = lanes ^ (kLaneLsb * partial_tag(line));
  std::uint64_t cand = (diff - kLaneLsb) & ~diff & kLaneMsb;
  while (cand != 0) {
    const auto lane = static_cast<std::uint32_t>(std::countr_zero(cand)) >> 4;
    if (lane < assoc && tags[lane] == line) return lane;
    cand &= cand - 1;
  }
  return assoc;
}

/// Touches `line` in one set and returns true on a hit: a hit promotes its
/// way to MRU; a miss installs the line in the way at the LRU position and
/// promotes it. Empty ways start at the permutation tail and are never
/// promoted until filled, so they are consumed before any real eviction —
/// the same fill order as the generic recency array.
inline bool touch(std::uint64_t* tags, std::uint64_t& lanes,
                  std::uint8_t& order, std::uint64_t line,
                  std::uint32_t assoc) {
  const std::uint32_t way = find(tags, lanes, line, assoc);
  if (way < assoc) {
    order = kPromote[order * 4u + way];
    return true;
  }
  const std::uint32_t victim = (order >> (2 * (assoc - 1))) & 3u;
  tags[victim] = line;
  const std::uint32_t shift = 16 * victim;
  lanes = (lanes & ~(std::uint64_t{0xffff} << shift)) |
          (std::uint64_t{partial_tag(line)} << shift);
  order = kPromote[order * 4u + victim];
  return false;
}

}  // namespace packed4

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheGeometry& geom);

  /// Touches `line`, installing it on a miss; returns true on a hit. The set
  /// index is the line id modulo the set count (physical index bits above
  /// the line offset).
  bool access(std::uint64_t line) {
    switch (repr_) {
      case Repr::kPacked4: return touch_packed(line);
      case Repr::kPackedWide: return touch_packed_wide(line);
      case Repr::kGeneric: return touch_generic(line);
    }
    return false;  // unreachable
  }

 private:
  enum class Repr : std::uint8_t { kPacked4, kPackedWide, kGeneric };

  static constexpr std::uint64_t kEmpty = packed4::kEmpty;
  // The 8x8-bit and 16x4-bit SWAR masks for the wide representation.
  static constexpr std::uint64_t kByteLsb = 0x0101010101010101ull;
  static constexpr std::uint64_t kByteMsb = 0x8080808080808080ull;
  static constexpr std::uint64_t kNibbleLsb = 0x1111111111111111ull;
  static constexpr std::uint64_t kNibbleMsb = 0x8888888888888888ull;
  static constexpr std::uint32_t kPackedMaxAssoc = 4;
  static constexpr std::uint32_t kPackedWideMaxAssoc = 16;

  /// 8-bit sibling of packed4::partial_tag for the wide representation
  /// (more false candidates per probe, each costing only a confirming
  /// full-tag load).
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

  bool touch_packed(std::uint64_t line);
  bool touch_packed_wide(std::uint64_t line);
  bool touch_generic(std::uint64_t line);

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
};

}  // namespace codelayout
