// Trace serialization (paper Sec. II-F "Instrumentation" records traces and a
// symbol mapping to files between the profiling run and the analysis).
//
// Format: magic, version (2), granularity, event count, run count, then one
// LEB128-varint (symbol, length) pair per maximal run. The run-length pairs
// are an encoding only: write_trace derives them from the flat event
// sequence as it writes, and read_trace expands them back. read_trace
// accepts version 2 only.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace codelayout {

/// Largest event count read_trace accepts: 64 MiB of symbols, the service's
/// frame cap, and about 20x the largest trace the workload suite builds.
/// Decoding costs 4 bytes per declared event, so without a cap a few bytes
/// of run-length encoding could make a reader allocate gigabytes.
inline constexpr std::uint64_t kMaxTraceEvents = std::uint64_t{1} << 24;

/// Writes/reads the binary trace format. read_trace throws ContractError on a
/// corrupt or hostile stream: bad magic, unsupported version, a declared
/// event count above kMaxTraceEvents, truncated payload or varint, varint
/// overflow, zero-length run, or a run-length sum that mismatches (or
/// overflows past) the declared event count.
void write_trace(std::ostream& os, const Trace& trace);
Trace read_trace(std::istream& is);

/// File-path convenience wrappers.
void save_trace(const std::string& path, const Trace& trace);
Trace load_trace(const std::string& path);

}  // namespace codelayout
