#include "cache/hierarchy.hpp"

#include <cmath>

#include "support/bytes.hpp"

namespace codelayout {
namespace {

template <class Codec, class Geometry>
void geometry_fields(Codec& c, Geometry& geom) {
  c.varint(geom.size_bytes);
  c.varint32(geom.associativity, "associativity out of range");
  c.varint32(geom.line_bytes, "line size out of range");
}

/// The canonical encoding: the L1 geometry, the optional L2 behind a
/// presence flag, and the three latencies' bit patterns.
template <class Codec, class Spec>
void spec_fields(Codec& c, Spec& spec) {
  geometry_fields(c, spec.l1);
  c.optional(spec.l2, "bad L2 presence flag",
             [&](auto& l2) { geometry_fields(c, l2); });
  c.f64(spec.l1_hit_cycles);
  c.f64(spec.l2_hit_cycles);
  c.f64(spec.memory_cycles);
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
  // value * scale must fit 64 bits; checked before each multiply-add, so
  // the value never wraps.
  const std::uint64_t limit = ~std::uint64_t{0} / scale;
  for (const char c : digits) {
    CL_CHECK_MSG(c >= '0' && c <= '9',
                 "geometry: bad " << what << " '" << std::string(text) << "'");
    const auto digit = static_cast<std::uint64_t>(c - '0');
    CL_CHECK_MSG(value <= (limit - digit) / 10,
                 "geometry: " << what << " overflows");
    value = value * 10 + digit;
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
  const std::uint64_t size = parse_number(text.substr(0, first), "size");
  const std::uint64_t assoc =
      parse_number(text.substr(first + 1, second - first - 1), "assoc");
  const std::uint64_t line = parse_number(text.substr(second + 1), "line");
  CL_CHECK_MSG(assoc <= ~std::uint32_t{0} && line <= ~std::uint32_t{0},
               "geometry: associativity or line size out of range");
  const CacheGeometry geom{size, static_cast<std::uint32_t>(assoc),
                           static_cast<std::uint32_t>(line)};
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
  ByteWriter out;
  spec_fields(out, *this);
  return std::move(out.out);
}

HierarchySpec HierarchySpec::decode(std::string_view bytes) {
  ByteReader in(bytes, "hierarchy encoding");
  HierarchySpec spec;
  spec_fields(in, spec);
  in.finish("trailing bytes");
  return spec;
}

std::uint64_t HierarchySpec::hash() const {
  return fnv1a_bytes(kFnvSeed, encode());
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
