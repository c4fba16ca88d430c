#include "cache/set_assoc.hpp"

#include <bit>

namespace codelayout {
namespace {

// The 16-nibble identity permutation for the wide representation: position p
// holds way p. Tail nibbles (>= assoc) keep values >= assoc forever — only
// positions <= assoc-1 are ever promoted — so they can never shadow a real
// way in the nibble match.
constexpr std::uint64_t kIdentityOrderWide = 0xfedcba9876543210ull;

}  // namespace

SetAssocCache::SetAssocCache(const CacheGeometry& geom) {
  geom.validate();  // includes the power-of-two set-count requirement
  const std::uint64_t sets = geom.sets();
  set_mask_ = sets - 1;
  assoc_ = geom.associativity;
  repr_ = assoc_ <= kPackedMaxAssoc        ? Repr::kPacked4
          : assoc_ <= kPackedWideMaxAssoc  ? Repr::kPackedWide
                                           : Repr::kGeneric;
  ways_.assign(sets * assoc_, kEmpty);
  if (repr_ == Repr::kPacked4) {
    partial_.assign(sets, 0);
    order_.assign(sets, packed4::kIdentityOrder);
  } else if (repr_ == Repr::kPackedWide) {
    words_ = (assoc_ + 7) / 8;
    partial_.assign(sets * words_, 0);
    order16_.assign(sets, kIdentityOrderWide);
  }
}

bool SetAssocCache::touch_packed(std::uint64_t line) {
  const std::uint64_t set = line & set_mask_;
  return packed4::touch(&ways_[set * assoc_], partial_[set], order_[set], line,
                        assoc_);
}

std::uint32_t SetAssocCache::wide_position(std::uint64_t perm,
                                           std::uint32_t way) {
  const std::uint64_t diff = perm ^ (kNibbleLsb * way);
  const std::uint64_t flags = (diff - kNibbleLsb) & ~diff & kNibbleMsb;
  return static_cast<std::uint32_t>(std::countr_zero(flags)) >> 2;
}

std::uint64_t SetAssocCache::wide_promote(std::uint64_t perm,
                                          std::uint32_t way,
                                          std::uint32_t pos) {
  const std::uint32_t bit = 4 * pos;
  const std::uint64_t below = perm & ((std::uint64_t{1} << bit) - 1);
  const std::uint64_t above =
      pos >= 15 ? 0 : (perm >> (bit + 4)) << (bit + 4);
  return above | (below << 4) | way;
}

bool SetAssocCache::touch_packed_wide(std::uint64_t line) {
  const std::uint64_t set = line & set_mask_;
  std::uint64_t* tags = &ways_[set * assoc_];
  std::uint64_t* lanes = &partial_[set * words_];
  // Same zero-lane test as the 4-way path, at byte granularity across
  // `words_` lane words; candidates confirm against the full tag.
  const std::uint64_t pattern = kByteLsb * partial_tag8(line);
  for (std::uint32_t w = 0; w < words_; ++w) {
    const std::uint64_t diff = lanes[w] ^ pattern;
    std::uint64_t cand = (diff - kByteLsb) & ~diff & kByteMsb;
    while (cand != 0) {
      const std::uint32_t lane =
          8 * w + (static_cast<std::uint32_t>(std::countr_zero(cand)) >> 3);
      if (lane < assoc_ && tags[lane] == line) {
        std::uint64_t& perm = order16_[set];
        perm = wide_promote(perm, lane, wide_position(perm, lane));
        return true;
      }
      cand &= cand - 1;
    }
  }
  // Miss: victim at the LRU position, exactly as the packed4 path (empty
  // ways drain from the permutation tail before any real eviction).
  const std::uint64_t perm = order16_[set];
  const std::uint32_t victim =
      static_cast<std::uint32_t>(perm >> (4 * (assoc_ - 1))) & 0xfu;
  tags[victim] = line;
  std::uint64_t& word = lanes[victim >> 3];
  const std::uint32_t shift = 8 * (victim & 7u);
  word = (word & ~(std::uint64_t{0xff} << shift)) |
         (std::uint64_t{partial_tag8(line)} << shift);
  order16_[set] = wide_promote(perm, victim, assoc_ - 1);
  return false;
}

bool SetAssocCache::touch_generic(std::uint64_t line) {
  const std::uint64_t set = line & set_mask_;
  std::uint64_t* base = &ways_[set * assoc_];

  // Probe MRU-first; on hit rotate the prefix so the hit way becomes MRU.
  for (std::uint32_t i = 0; i < assoc_; ++i) {
    if (base[i] == line) {
      for (std::uint32_t j = i; j > 0; --j) base[j] = base[j - 1];
      base[0] = line;
      return true;
    }
  }
  // Miss: evict the LRU way (the last slot).
  for (std::uint32_t j = assoc_ - 1; j > 0; --j) base[j] = base[j - 1];
  base[0] = line;
  return false;
}

}  // namespace codelayout
