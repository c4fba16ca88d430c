// The one byte codec. Every byte format in this repository (the service's
// frame header and payloads, the trace stream, HierarchySpec's canonical
// encoding) is written by ByteWriter and read by ByteReader, and each is one
// field list: a template over the codec that both walk. `c.varint(x)`
// appends x on a writer and reads into x on a reader, so a format's field
// order is written down exactly once.
//
// Encodings: LEB128 varints; little-endian fixed-width words; doubles as
// their IEEE-754 bit patterns (byte-deterministic across hosts of one
// endianness, NaN payloads untouched); byte strings as a varint length and
// the bytes; enums and flags as one byte; optionals as a presence flag and
// the value; lists as a varint count and the items.
//
// The reader trusts nothing: truncation, an overlong varint, an enum past its
// last value, a flag other than 0 or 1, a list over its cap, a value too wide
// for 32 bits and (at finish()) trailing bytes each throw ContractError, its
// message led by the reader's context ("service payload: too many results").
//
// Also the one 64-bit FNV-1a that fingerprints such bytes and the golden
// checksums.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/check.hpp"

namespace codelayout {

/// Appends encoded values to `out`. The forms that take a check message,
/// cap or last enum value mirror ByteReader's so one field list drives
/// both; writing ignores them.
class ByteWriter {
 public:
  std::string out;

  void u8(std::uint8_t value) { out.push_back(static_cast<char>(value)); }
  void u16(std::uint16_t value) { word(value, 2); }
  void u32(std::uint32_t value) { word(value, 4); }
  void u64(std::uint64_t value) { word(value, 8); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void varint(std::uint64_t value) {
    for (; value >= 0x80; value >>= 7) {
      u8(static_cast<std::uint8_t>(value | 0x80));
    }
    u8(static_cast<std::uint8_t>(value));
  }
  void bytes(std::string_view s) {
    varint(s.size());
    out.append(s);
  }

  void varint32(std::uint64_t value, const char* /*what*/) { varint(value); }
  template <class Enum>
  void enumeration(Enum value, Enum /*last*/, const char* /*what*/) {
    u8(static_cast<std::uint8_t>(value));
  }
  void flag(bool value, const char* /*what*/) { u8(value ? 1 : 0); }
  template <class T, class Fields>
  void optional(const std::optional<T>& value, const char* /*what*/,
                Fields&& fields) {
    u8(value ? 1 : 0);
    if (value) fields(*value);
  }
  template <class T, class Fields>
  void list(const std::vector<T>& items, std::uint64_t /*cap*/,
            const char* /*what*/, Fields&& fields) {
    varint(items.size());
    for (const T& item : items) fields(item);
  }

 private:
  void word(std::uint64_t value, int width) {
    for (int i = 0; i < width; ++i) {
      u8(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }
};

/// Cursor over encoded bytes that checks every read. A field list calls the
/// same methods on it as on a ByteWriter, with lvalues to read into; the
/// message-taking forms throw `context: what` when the check fails.
class ByteReader {
 public:
  ByteReader(std::string_view data, const char* context)
      : data_(data), context_(context) {}

  void u8(std::uint8_t& value) { word_into(value); }
  void u16(std::uint16_t& value) { word_into(value); }
  void u32(std::uint32_t& value) { word_into(value); }
  void u64(std::uint64_t& value) { word_into(value); }
  void f64(double& value) { value = std::bit_cast<double>(word(8)); }
  void varint(std::uint64_t& value) { value = varint(); }
  void bytes(std::string& s) { s.assign(bytes()); }

  std::uint64_t varint() {
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      check(pos_ < data_.size(), "truncated varint");
      const auto byte = static_cast<std::uint8_t>(data_[pos_++]);
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        check(shift < 63 || byte <= 1, "varint overflow");
        return value;
      }
    }
    fail("varint overflow");
  }

  /// A length-prefixed byte string, as a view into the input.
  std::string_view bytes() {
    const std::uint64_t n = varint();
    check(n <= data_.size() - pos_, "truncated");
    const std::string_view view = data_.substr(pos_, n);
    pos_ += n;
    return view;
  }

  void varint32(std::uint32_t& value, const char* what) {
    const std::uint64_t wide = varint();
    check(wide <= ~std::uint32_t{0}, what);
    value = static_cast<std::uint32_t>(wide);
  }
  template <class Enum>
  void enumeration(Enum& value, Enum last, const char* what) {
    const std::uint64_t raw = word(1);
    check(raw <= static_cast<std::uint64_t>(last), what);
    value = static_cast<Enum>(raw);
  }
  void flag(bool& value, const char* what) {
    const std::uint64_t raw = word(1);
    check(raw <= 1, what);
    value = raw != 0;
  }
  template <class T, class Fields>
  void optional(std::optional<T>& value, const char* what, Fields&& fields) {
    bool present = false;
    flag(present, what);
    value.reset();
    if (present) fields(value.emplace());
  }
  template <class T, class Fields>
  void list(std::vector<T>& items, std::uint64_t cap, const char* what,
            Fields&& fields) {
    const std::uint64_t n = varint();
    check(n <= cap, what);
    items.clear();
    items.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) fields(items.emplace_back());
  }

  /// Throws `context: what` unless every byte has been read.
  void finish(const char* what) const { check(pos_ == data_.size(), what); }

  /// Throws ContractError reading `context: parts...` unless `ok`.
  template <class... Parts>
  void check(bool ok, const Parts&... parts) const {
    if (!ok) [[unlikely]] fail(parts...);
  }

 private:
  template <class... Parts>
  [[noreturn]] void fail(const Parts&... parts) const {
    std::ostringstream os;
    os << context_ << ": ";
    (os << ... << parts);
    throw ContractError(os.str());
  }

  template <class Word>
  void word_into(Word& value) {
    value = static_cast<Word>(word(sizeof(Word)));
  }

  std::uint64_t word(std::size_t width) {
    check(data_.size() - pos_ >= width, "truncated");
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < width; ++i) {
      value |= static_cast<std::uint64_t>(
                   static_cast<std::uint8_t>(data_[pos_ + i]))
               << (8 * i);
    }
    pos_ += width;
    return value;
  }

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
