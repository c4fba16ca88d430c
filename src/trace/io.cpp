#include "trace/io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "support/registry.hpp"

namespace codelayout {
namespace {

constexpr std::uint32_t kMagic = 0x434c5452;  // "CLTR"
constexpr std::uint32_t kVersion = 2;

void put_u32(std::ostream& os, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  os.write(buf, 4);
}

void put_u64(std::ostream& os, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  os.write(buf, 8);
}

void put_varint(std::ostream& os, std::uint64_t v) {
  char buf[10];
  int n = 0;
  do {
    char byte = static_cast<char>(v & 0x7f);
    v >>= 7;
    if (v != 0) byte = static_cast<char>(byte | 0x80);
    buf[n++] = byte;
  } while (v != 0);
  os.write(buf, n);
}

std::uint32_t get_u32(std::istream& is) {
  char buf[4];
  is.read(buf, 4);
  CL_CHECK_MSG(is.gcount() == 4, "truncated trace stream");
  std::uint32_t v;
  std::memcpy(&v, buf, 4);
  return v;
}

std::uint64_t get_u64(std::istream& is) {
  char buf[8];
  is.read(buf, 8);
  CL_CHECK_MSG(is.gcount() == 8, "truncated trace stream");
  std::uint64_t v;
  std::memcpy(&v, buf, 8);
  return v;
}

std::uint64_t get_varint(std::istream& is) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const int c = is.get();
    CL_CHECK_MSG(c != std::istream::traits_type::eof(),
                 "truncated varint in trace stream");
    const auto byte = static_cast<std::uint64_t>(c & 0xff);
    const std::uint64_t payload = byte & 0x7f;
    CL_CHECK_MSG(shift < 63 || payload <= 1, "varint overflow in trace stream");
    v |= payload << shift;
    if ((byte & 0x80) == 0) return v;
  }
  CL_CHECK_MSG(false, "varint overflow in trace stream");
  return 0;  // unreachable
}

/// Reads a varint that must fit a 32-bit field (symbol or run length).
std::uint32_t get_varint32(std::istream& is, const char* what) {
  const std::uint64_t v = get_varint(is);
  CL_CHECK_MSG(v <= std::numeric_limits<std::uint32_t>::max(),
               what << " overflows 32 bits in trace stream");
  return static_cast<std::uint32_t>(v);
}

}  // namespace

void write_trace(std::ostream& os, const Trace& trace) {
  put_u32(os, kMagic);
  put_u32(os, kVersion);
  put_u32(os, trace.is_block() ? 0u : 1u);
  put_u64(os, trace.size());
  put_u64(os, trace.run_count());
  trace.for_each_run([&](Symbol symbol, std::uint64_t length) {
    put_varint(os, symbol);
    put_varint(os, length);
  });
  CL_CHECK_MSG(os.good(), "trace write failed");
}

Trace read_trace(std::istream& is) {
  const std::istream::pos_type begin = is.tellg();
  CL_CHECK_MSG(get_u32(is) == kMagic, "bad trace magic");
  CL_CHECK_MSG(get_u32(is) == kVersion, "unsupported trace version");
  const auto gran = get_u32(is) == 0 ? Trace::Granularity::kBlock
                                     : Trace::Granularity::kFunction;
  const std::uint64_t events = get_u64(is);
  const std::uint64_t pairs = get_u64(is);
  // Expanding the runs costs 4 bytes per event, so the declared event count
  // is capped before anything is stored; the run lengths below must then sum
  // to exactly that count. A hostile header can also declare any run count;
  // never trust it for an allocation. Each pair costs >= 2 stream bytes, so
  // a short stream runs out of bytes (-> truncation error) first.
  CL_CHECK_MSG(events <= kMaxTraceEvents,
               "trace declares " << events << " events, above the "
                                 << kMaxTraceEvents << "-event decode cap");
  Trace out(gran);
  out.reserve(events);
  std::uint64_t decoded = 0;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const Symbol symbol = get_varint32(is, "symbol");
    const std::uint32_t length = get_varint32(is, "run length");
    CL_CHECK_MSG(length > 0, "zero-length run in trace stream");
    // Checked against the remaining count, so the running sum never passes
    // the declared total.
    CL_CHECK_MSG(length <= events - decoded,
                 "run lengths exceed declared event count");
    out.push_run(symbol, length);
    decoded += length;
  }
  CL_CHECK_MSG(decoded == events, "trace event count mismatch");
  MetricsRegistry& registry = MetricsRegistry::global();
  if (registry.enabled()) {
    registry.counter("trace.io.traces_decoded").add(1);
    // Seekable streams (files, stringstreams — every embedder we have)
    // report exact decoded bytes; tellg() failing just skips the counter.
    const std::istream::pos_type end = is.tellg();
    if (begin != std::istream::pos_type(-1) &&
        end != std::istream::pos_type(-1) && end > begin) {
      registry.counter("trace.io.bytes_decoded")
          .add(static_cast<std::uint64_t>(end - begin));
    }
  }
  return out;
}

void save_trace(const std::string& path, const Trace& trace) {
  std::ofstream f(path, std::ios::binary);
  CL_CHECK_MSG(f.is_open(), "cannot open " << path << " for writing");
  write_trace(f, trace);
}

Trace load_trace(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  CL_CHECK_MSG(f.is_open(), "cannot open " << path);
  return read_trace(f);
}

}  // namespace codelayout
