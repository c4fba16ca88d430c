// The byte codec of the service protocol and of HierarchySpec::encode():
// LEB128 varints, single bytes, and doubles as their IEEE-754 bit patterns,
// little-endian. The bit patterns are byte-deterministic across hosts with
// the same endianness and round-trip NaN payloads untouched. Also the one
// 64-bit FNV-1a that fingerprints such bytes and the golden checksums.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "support/check.hpp"

namespace codelayout {

inline void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

inline void put_u8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

inline void put_double(std::string& out, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

/// Cursor over encoded bytes. Every getter throws ContractError on
/// truncation or an overlong varint, its message led by `context` (say,
/// "service payload"); callers check done() at the end so trailing garbage is
/// an error too.
class ByteReader {
 public:
  ByteReader(std::string_view data, const char* context)
      : data_(data), context_(context) {}

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

  std::uint8_t u8() {
    CL_CHECK_MSG(pos_ < data_.size(), context_ << " truncated");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint64_t varint() {
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = u8();
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        CL_CHECK_MSG(shift < 63 || byte <= 1, context_ << " varint overflow");
        return value;
      }
    }
    CL_CHECK_MSG(false, context_ << " varint overflow");
    return 0;  // unreachable
  }

  double f64() {
    CL_CHECK_MSG(remaining() >= 8, context_ << " truncated");
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(data_[pos_ + i]))
              << (8 * i);
    }
    pos_ += 8;
    double value = 0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  std::string_view bytes(std::uint64_t n) {
    CL_CHECK_MSG(n <= remaining(), context_ << " truncated");
    std::string_view view = data_.substr(pos_, n);
    pos_ += n;
    return view;
  }

 private:
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  std::string_view data_;
  const char* context_;
  std::size_t pos_ = 0;
};

/// 64-bit FNV-1a. fnv1a() folds in the eight little-endian bytes of one
/// word, fnv1a_bytes() a byte string; both chain from kFnvSeed, the offset
/// basis.
inline constexpr std::uint64_t kFnvSeed = 14695981039346656037ull;

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t fnv1a_bytes(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace codelayout
