#include "cache/hierarchy.hpp"

#include <cmath>

#include "support/bytes.hpp"

namespace codelayout {
namespace {

void put_geometry(std::string& out, const CacheGeometry& geom) {
  put_varint(out, geom.size_bytes);
  put_varint(out, geom.associativity);
  put_varint(out, geom.line_bytes);
}

/// A geometry from its three fields, once the two 32-bit ones are known to
/// fit; every tighter limit is CacheGeometry::validate()'s.
CacheGeometry make_geometry(std::uint64_t size, std::uint64_t assoc,
                            std::uint64_t line) {
  CL_CHECK_MSG(assoc <= ~std::uint32_t{0} && line <= ~std::uint32_t{0},
               "geometry: associativity or line size out of range");
  return CacheGeometry{size, static_cast<std::uint32_t>(assoc),
                       static_cast<std::uint32_t>(line)};
}

CacheGeometry get_geometry(ByteReader& in) {
  const std::uint64_t size = in.varint();
  const std::uint64_t assoc = in.varint();
  return make_geometry(size, assoc, in.varint());
}

std::uint64_t parse_number(std::string_view text, std::string_view what) {
  CL_CHECK_MSG(!text.empty(), "geometry: empty " << what << " field");
  std::uint64_t value = 0;
  std::uint64_t scale = 1;
  std::string_view digits = text;
  const char suffix = text.back();
  if (suffix == 'K' || suffix == 'k') {
    scale = 1024;
    digits = text.substr(0, text.size() - 1);
  } else if (suffix == 'M' || suffix == 'm') {
    scale = 1024 * 1024;
    digits = text.substr(0, text.size() - 1);
  }
  CL_CHECK_MSG(!digits.empty(), "geometry: empty " << what << " field");
  for (const char c : digits) {
    CL_CHECK_MSG(c >= '0' && c <= '9',
                 "geometry: bad " << what << " '" << std::string(text) << "'");
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    CL_CHECK_MSG(value <= (~std::uint64_t{0}) / scale,
                 "geometry: " << what << " overflows");
  }
  return value * scale;
}

}  // namespace

CacheGeometry parse_geometry(std::string_view text) {
  const std::size_t first = text.find('/');
  CL_CHECK_MSG(first != std::string_view::npos,
               "geometry: expected SIZE/ASSOC/LINE, got '" << std::string(text)
                                                           << "'");
  const std::size_t second = text.find('/', first + 1);
  CL_CHECK_MSG(second != std::string_view::npos &&
                   text.find('/', second + 1) == std::string_view::npos,
               "geometry: expected SIZE/ASSOC/LINE, got '" << std::string(text)
                                                           << "'");
  const CacheGeometry geom = make_geometry(
      parse_number(text.substr(0, first), "size"),
      parse_number(text.substr(first + 1, second - first - 1), "assoc"),
      parse_number(text.substr(second + 1), "line"));
  geom.validate();
  return geom;
}

void HierarchySpec::validate() const {
  l1.validate();
  CL_CHECK_MSG(std::isfinite(l1_hit_cycles) && l1_hit_cycles > 0.0,
               "hierarchy: L1 hit latency must be finite and positive");
  CL_CHECK_MSG(std::isfinite(memory_cycles) && memory_cycles >= l1_hit_cycles,
               "hierarchy: memory latency must be finite and >= the L1 hit");
  if (!l2) return;
  l2->validate();
  CL_CHECK_MSG(l2->line_bytes == l1.line_bytes,
               "hierarchy: L2 line size " << l2->line_bytes
                                          << " must match L1 line size "
                                          << l1.line_bytes
                                          << " (line ids are L1-granular)");
  CL_CHECK_MSG(l2->size_bytes >= l1.size_bytes,
               "hierarchy: L2 (" << l2->to_string()
                                 << ") must be at least as large as L1 ("
                                 << l1.to_string() << ")");
  CL_CHECK_MSG(std::isfinite(l2_hit_cycles) && l2_hit_cycles >= l1_hit_cycles &&
                   memory_cycles >= l2_hit_cycles,
               "hierarchy: latencies must be finite with L1 <= L2 <= memory");
}

std::string HierarchySpec::to_string() const {
  std::string out = l1.to_string();
  if (l2) {
    out += "+l2=";
    out += l2->to_string();
  }
  return out;
}

std::string HierarchySpec::encode() const {
  std::string out;
  put_geometry(out, l1);
  out.push_back(l2 ? 1 : 0);
  if (l2) put_geometry(out, *l2);
  put_double(out, l1_hit_cycles);
  put_double(out, l2_hit_cycles);
  put_double(out, memory_cycles);
  return out;
}

HierarchySpec HierarchySpec::decode(std::string_view bytes) {
  ByteReader in(bytes, "hierarchy encoding");
  HierarchySpec spec;
  spec.l1 = get_geometry(in);
  const std::uint8_t has_l2 = in.u8();
  CL_CHECK_MSG(has_l2 <= 1, "hierarchy encoding: bad L2 presence flag");
  if (has_l2 != 0) spec.l2 = get_geometry(in);
  spec.l1_hit_cycles = in.f64();
  spec.l2_hit_cycles = in.f64();
  spec.memory_cycles = in.f64();
  CL_CHECK_MSG(in.done(), "hierarchy encoding: trailing bytes");
  return spec;
}

std::uint64_t HierarchySpec::hash() const {
  const std::string bytes = encode();
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

HierarchySpec parse_hierarchy(std::string_view text) {
  HierarchySpec spec;
  const std::size_t plus = text.find("+l2=");
  if (plus == std::string_view::npos) {
    spec.l1 = parse_geometry(text);
  } else {
    spec.l1 = parse_geometry(text.substr(0, plus));
    spec.l2 = parse_geometry(text.substr(plus + 4));
  }
  spec.validate();
  return spec;
}

}  // namespace codelayout
