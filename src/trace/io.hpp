// Trace serialization (paper Sec. II-F "Instrumentation" records traces and a
// symbol mapping to files between the profiling run and the analysis). The
// codec works on bytes; a caller that keeps a trace in a file writes and
// reads these bytes itself.
//
// Format, in support/bytes.hpp's codec: a 28-byte header of little-endian
// words (magic u32, version u32 = 2, granularity u32 = 0 block / 1
// function, event count u64, run count u64), then one varint
// (symbol, length) pair per maximal run. The run-length pairs are an
// encoding only: encode_trace derives them from the flat event sequence as
// it writes, and decode_trace expands them back. The service embeds these
// bytes verbatim in a kTraceStats request.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "trace/trace.hpp"

namespace codelayout {

/// Largest event count decode_trace accepts: 64 MiB of symbols, the
/// service's frame cap, and about 20x the largest trace the workload suite
/// builds. Decoding costs 4 bytes per declared event, so without a cap a few
/// bytes of run-length encoding could make a reader allocate gigabytes.
inline constexpr std::uint64_t kMaxTraceEvents = std::uint64_t{1} << 24;

/// Encodes/decodes the binary trace format. decode_trace throws
/// ContractError on corrupt or hostile bytes: bad magic, a version other
/// than 2, a granularity other than 0 or 1, a declared event count above
/// kMaxTraceEvents, truncation, varint overflow, a symbol or run length
/// wider than 32 bits, a zero-length run, a run-length sum that mismatches
/// (or would pass) the declared event count, or bytes after the last run.
[[nodiscard]] std::string encode_trace(const Trace& trace);
[[nodiscard]] Trace decode_trace(std::string_view bytes);

}  // namespace codelayout
