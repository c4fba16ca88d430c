#include "trace/io.hpp"

#include "support/bytes.hpp"
#include "support/registry.hpp"

namespace codelayout {
namespace {

constexpr std::uint32_t kMagic = 0x434c5452;  // "CLTR"
constexpr std::uint32_t kVersion = 2;

struct Header {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t granularity = 0;
  std::uint64_t events = 0;
  std::uint64_t runs = 0;
};

template <class Codec, class HeaderT>
void header_fields(Codec& c, HeaderT& header) {
  c.u32(header.magic);
  c.u32(header.version);
  c.u32(header.granularity);
  c.u64(header.events);
  c.u64(header.runs);
}

template <class Codec, class SymbolT, class LengthT>
void run_fields(Codec& c, SymbolT& symbol, LengthT& length) {
  c.varint32(symbol, "symbol overflows 32 bits");
  c.varint32(length, "run length overflows 32 bits");
}

}  // namespace

std::string encode_trace(const Trace& trace) {
  ByteWriter out;
  const Header header{.granularity = trace.is_block() ? 0u : 1u,
                      .events = trace.size(),
                      .runs = trace.run_count()};
  header_fields(out, header);
  trace.for_each_run([&](Symbol symbol, std::uint64_t length) {
    run_fields(out, symbol, length);
  });
  return std::move(out.out);
}

Trace decode_trace(std::string_view bytes) {
  ByteReader in(bytes, "trace stream");
  Header header;
  header_fields(in, header);
  in.check(header.magic == kMagic, "bad magic");
  in.check(header.version == kVersion, "unsupported trace version ",
           header.version, " (this build reads ", kVersion, ")");
  in.check(header.granularity <= 1, "granularity ", header.granularity,
           " is neither 0 (block) nor 1 (function)");
  // Expanding the runs costs 4 bytes per event, so the declared event count
  // is capped before anything is stored; the run lengths below must then sum
  // to exactly that count. The declared run count is never trusted for an
  // allocation: each run costs at least 2 bytes, so a short input runs out
  // of bytes (a truncation error) first.
  in.check(header.events <= kMaxTraceEvents, "trace declares ", header.events,
           " events, above the ", kMaxTraceEvents, "-event decode cap");
  Trace out(header.granularity == 0 ? Trace::Granularity::kBlock
                                    : Trace::Granularity::kFunction);
  out.reserve(header.events);
  std::uint64_t decoded = 0;
  for (std::uint64_t i = 0; i < header.runs; ++i) {
    Symbol symbol = 0;
    std::uint32_t length = 0;
    run_fields(in, symbol, length);
    in.check(length > 0, "zero-length run");
    // Checked against the remaining count, so the running sum never passes
    // the declared total.
    in.check(length <= header.events - decoded,
             "run lengths exceed declared event count");
    out.push_run(symbol, length);
    decoded += length;
  }
  in.check(decoded == header.events, "event count mismatch");
  in.finish("trailing bytes after the declared runs");
  MetricsRegistry& registry = MetricsRegistry::global();
  if (registry.enabled()) {
    registry.counter("trace.io.traces_decoded").add(1);
    registry.counter("trace.io.bytes_decoded").add(bytes.size());
  }
  return out;
}

}  // namespace codelayout
