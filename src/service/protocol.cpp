#include "service/protocol.hpp"

#include <sstream>

#include "support/bytes.hpp"
#include "support/check.hpp"
#include "trace/io.hpp"

namespace codelayout::service {
namespace {

void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s.data(), s.size());
}

void put_optimizer(std::string& out, const std::optional<Optimizer>& opt) {
  put_u8(out, opt.has_value() ? 1 : 0);
  if (opt) {
    put_u8(out, static_cast<std::uint8_t>(opt->model));
    put_u8(out, static_cast<std::uint8_t>(opt->granularity));
  }
}

void put_trace(std::string& out, const Trace& trace) {
  std::ostringstream blob;
  write_trace(blob, trace);
  put_string(out, blob.str());
}

void put_sim_result(std::string& out, const SimResult& r) {
  put_varint(out, r.instructions);
  put_varint(out, r.overhead_instructions);
  put_varint(out, r.line_probes);
  put_varint(out, r.demand_misses);
  put_varint(out, r.wrong_path_misses);
  put_varint(out, r.blocks);
  put_varint(out, r.l2_probes);  // zero under a flat hierarchy
  put_varint(out, r.l2_misses);
}

std::string get_string(ByteReader& in) {
  return std::string(in.bytes(in.varint()));
}

std::optional<Optimizer> get_optimizer(ByteReader& in) {
  const std::uint8_t present = in.u8();
  CL_CHECK_MSG(present <= 1, "service payload: bad optimizer presence flag");
  if (!present) return std::nullopt;
  const std::uint8_t model = in.u8();
  const std::uint8_t granularity = in.u8();
  CL_CHECK_MSG(model <= static_cast<std::uint8_t>(ModelKind::kTrg),
               "service payload: optimizer model out of range");
  CL_CHECK_MSG(granularity <= static_cast<std::uint8_t>(Granularity::kBlock),
               "service payload: optimizer granularity out of range");
  return Optimizer{static_cast<ModelKind>(model),
                   static_cast<Granularity>(granularity)};
}

Trace get_trace(ByteReader& in) {
  const std::string_view blob = in.bytes(in.varint());
  if (blob.empty()) return Trace{Trace::Granularity::kBlock};
  std::istringstream is{std::string(blob)};
  Trace trace = read_trace(is);
  // read_trace consumed exactly the stream it declared; anything left in the
  // blob is garbage the embedder never wrote.
  is.peek();
  CL_CHECK_MSG(is.eof(), "service payload: trailing bytes after embedded trace");
  return trace;
}

SimResult get_sim_result(ByteReader& in) {
  SimResult r;
  r.instructions = in.varint();
  r.overhead_instructions = in.varint();
  r.line_probes = in.varint();
  r.demand_misses = in.varint();
  r.wrong_path_misses = in.varint();
  r.blocks = in.varint();
  r.l2_probes = in.varint();
  r.l2_misses = in.varint();
  return r;
}

/// One encoder for both the wire payload and the canonical key: the key is
/// the same body with the per-call fields (id, priority, trace context)
/// normalized away.
std::string encode_request_body(const JobRequest& request, std::uint64_t id,
                                JobPriority priority, std::uint64_t trace_id,
                                std::uint64_t span_id) {
  std::string out;
  put_varint(out, id);
  put_u8(out, static_cast<std::uint8_t>(priority));
  put_u8(out, static_cast<std::uint8_t>(request.kind));
  put_u8(out, static_cast<std::uint8_t>(request.measure));
  put_string(out, request.workload);
  put_optimizer(out, request.optimizer);
  put_varint(out, request.parties.size());
  for (const CorunPartyRequest& party : request.parties) {
    put_string(out, party.workload);
    put_optimizer(out, party.optimizer);
    put_double(out, party.speed);
  }
  put_u8(out, request.cpi_speeds ? 1 : 0);
  put_trace(out, request.trace);
  put_string(out, request.hierarchy.encode());  // canonical spec encoding
  put_varint(out, trace_id);
  put_varint(out, span_id);
  put_u8(out, static_cast<std::uint8_t>(request.introspect));
  put_varint(out, request.slots);
  put_varint(out, request.verify_top_k);
  return out;
}

std::string frame(FrameType type, const std::string& payload) {
  CL_CHECK_MSG(payload.size() <= kMaxPayloadBytes,
               "service frame payload too large: " << payload.size()
                                                   << " bytes");
  FrameHeader header;
  header.type = type;
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  std::string out(kFrameHeaderBytes, '\0');
  encode_frame_header(header, out.data());
  out += payload;
  return out;
}

}  // namespace

const char* job_kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::kSolo: return "solo";
    case JobKind::kLayout: return "layout";
    case JobKind::kCorun: return "corun";
    case JobKind::kTraceStats: return "trace-stats";
    case JobKind::kIntrospect: return "introspect";
    case JobKind::kCoSchedule: return "co-schedule";
  }
  return "?";
}

const char* introspect_kind_name(IntrospectKind kind) {
  switch (kind) {
    case IntrospectKind::kStats: return "stats";
    case IntrospectKind::kHealth: return "health";
    case IntrospectKind::kMetricsJson: return "metrics-json";
    case IntrospectKind::kPrometheus: return "prometheus";
    case IntrospectKind::kRecentJobs: return "recent-jobs";
    case IntrospectKind::kTraceExport: return "trace-export";
  }
  return "?";
}

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kError: return "error";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kShuttingDown: return "shutting-down";
  }
  return "?";
}

std::string JobRequest::canonical_key() const {
  return encode_request_body(*this, 0, JobPriority::kNormal, 0, 0);
}

std::string JobRequest::to_string() const {
  std::ostringstream os;
  os << job_kind_name(kind);
  if (kind == JobKind::kCorun) {
    for (std::size_t i = 0; i < parties.size(); ++i) {
      os << (i == 0 ? " " : " x ") << parties[i].workload << '|'
         << (parties[i].optimizer ? parties[i].optimizer->name() : "Original");
    }
  } else if (kind == JobKind::kCoSchedule) {
    os << ' ' << parties.size() << " parties -> " << slots << " slots";
    if (verify_top_k > 0) os << " (verify " << verify_top_k << ')';
    if (hierarchy != HierarchySpec{}) os << "|g=" << hierarchy.to_string();
    return os.str();
  } else if (kind == JobKind::kIntrospect) {
    os << ' ' << introspect_kind_name(introspect);
    return os.str();
  } else if (kind == JobKind::kTraceStats) {
    os << ' ' << trace.size() << " events";
  } else {
    os << ' ' << workload << '|'
       << (optimizer ? optimizer->name() : "Original");
  }
  if (kind == JobKind::kSolo || kind == JobKind::kCorun) {
    os << '|' << (measure == Measure::kHardware ? "hw" : "sim");
    if (hierarchy != HierarchySpec{}) os << "|g=" << hierarchy.to_string();
  }
  return os.str();
}

std::string encode_request_payload(const JobRequest& request) {
  return encode_request_body(request, request.id, request.priority,
                             request.trace_id, request.span_id);
}

std::string encode_response_payload(const JobResponse& response) {
  std::string out;
  put_varint(out, response.id);
  put_u8(out, static_cast<std::uint8_t>(response.status));
  put_string(out, response.error);
  put_varint(out, response.results.size());
  for (const SimResult& r : response.results) put_sim_result(out, r);
  put_varint(out, response.layout.blocks);
  put_varint(out, response.layout.total_bytes);
  put_varint(out, response.layout.overhead_bytes);
  put_varint(out, response.layout.fixups);
  put_varint(out, response.layout.order_checksum);
  put_varint(out, response.trace_stats.events);
  put_varint(out, response.trace_stats.runs);
  put_varint(out, response.trace_stats.distinct_symbols);
  put_varint(out, response.trace_stats.checksum);
  put_varint(out, response.receipt.events);
  // Retired slots (rounds_fast, rounds_fallback of the deleted co-run
  // collapse): always 0, kept so reply bytes do not move.
  put_varint(out, 0);
  put_varint(out, 0);
  put_varint(out, response.receipt.cache_probes);
  put_varint(out, response.receipt.l2_probes);
  put_varint(out, response.receipt.memo_hits);
  put_varint(out, response.receipt.memo_misses);
  put_varint(out, response.receipt.bytes_decoded);
  put_varint(out, response.receipt.queue_wait_nanos);
  put_varint(out, response.receipt.wall_nanos);
  put_u8(out, response.receipt.cached ? 1 : 0);
  put_string(out, response.introspect);
  // Retired slots (dispatch_run, dispatch_flat, run_compression of the
  // deleted kernel dispatch): always 0, kept so reply bytes do not move.
  put_varint(out, 0);
  put_varint(out, 0);
  put_double(out, 0.0);
  put_varint(out, response.schedule.pairs.size());
  for (const CoScheduleResult::Pair& pair : response.schedule.pairs) {
    put_varint(out, pair.a);
    put_varint(out, pair.b);
    put_double(out, pair.predicted_misses);
  }
  put_varint(out, response.schedule.unpaired.size());
  for (std::uint64_t idx : response.schedule.unpaired) put_varint(out, idx);
  put_double(out, response.schedule.predicted_total_misses);
  put_varint(out, response.schedule.refine_passes);
  put_varint(out, response.schedule.verified.size());
  for (std::uint64_t idx : response.schedule.verified) put_varint(out, idx);
  put_varint(out, response.receipt.predict_calls);
  put_varint(out, response.receipt.profile_memo_hits);
  return out;
}

JobRequest decode_request_payload(std::string_view payload) {
  ByteReader in(payload, "service payload");
  JobRequest request;
  request.id = in.varint();
  const std::uint8_t priority = in.u8();
  CL_CHECK_MSG(priority <= static_cast<std::uint8_t>(JobPriority::kInteractive),
               "service payload: priority out of range");
  request.priority = static_cast<JobPriority>(priority);
  const std::uint8_t kind = in.u8();
  CL_CHECK_MSG(kind <= static_cast<std::uint8_t>(JobKind::kCoSchedule),
               "service payload: job kind out of range");
  request.kind = static_cast<JobKind>(kind);
  const std::uint8_t measure = in.u8();
  CL_CHECK_MSG(measure <= static_cast<std::uint8_t>(Measure::kHardware),
               "service payload: measure out of range");
  request.measure = static_cast<Measure>(measure);
  request.workload = get_string(in);
  request.optimizer = get_optimizer(in);
  const std::uint64_t party_count = in.varint();
  CL_CHECK_MSG(party_count <= 64, "service payload: too many co-run parties");
  request.parties.reserve(party_count);
  for (std::uint64_t i = 0; i < party_count; ++i) {
    CorunPartyRequest party;
    party.workload = get_string(in);
    party.optimizer = get_optimizer(in);
    party.speed = in.f64();
    request.parties.push_back(std::move(party));
  }
  const std::uint8_t cpi = in.u8();
  CL_CHECK_MSG(cpi <= 1, "service payload: bad cpi_speeds flag");
  request.cpi_speeds = cpi != 0;
  request.trace = get_trace(in);
  request.hierarchy = HierarchySpec::decode(get_string(in));
  request.hierarchy.validate();
  request.trace_id = in.varint();
  request.span_id = in.varint();
  const std::uint8_t introspect = in.u8();
  CL_CHECK_MSG(
      introspect <= static_cast<std::uint8_t>(IntrospectKind::kTraceExport),
      "service payload: introspect kind out of range");
  request.introspect = static_cast<IntrospectKind>(introspect);
  request.slots = in.varint();
  request.verify_top_k = in.varint();
  CL_CHECK_MSG(in.done(), "service payload: trailing bytes after request");
  return request;
}

JobResponse decode_response_payload(std::string_view payload) {
  ByteReader in(payload, "service payload");
  JobResponse response;
  response.id = in.varint();
  const std::uint8_t status = in.u8();
  CL_CHECK_MSG(status <= static_cast<std::uint8_t>(JobStatus::kShuttingDown),
               "service payload: status out of range");
  response.status = static_cast<JobStatus>(status);
  response.error = get_string(in);
  const std::uint64_t result_count = in.varint();
  CL_CHECK_MSG(result_count <= 64, "service payload: too many results");
  response.results.reserve(result_count);
  for (std::uint64_t i = 0; i < result_count; ++i) {
    response.results.push_back(get_sim_result(in));
  }
  response.layout.blocks = in.varint();
  response.layout.total_bytes = in.varint();
  response.layout.overhead_bytes = in.varint();
  const std::uint64_t fixups = in.varint();
  CL_CHECK_MSG(fixups <= ~std::uint32_t{0},
               "service payload: fixup count out of range");
  response.layout.fixups = static_cast<std::uint32_t>(fixups);
  response.layout.order_checksum = in.varint();
  response.trace_stats.events = in.varint();
  response.trace_stats.runs = in.varint();
  response.trace_stats.distinct_symbols = in.varint();
  response.trace_stats.checksum = in.varint();
  response.receipt.events = in.varint();
  // Two retired slots: read and discarded.
  static_cast<void>(in.varint());
  static_cast<void>(in.varint());
  response.receipt.cache_probes = in.varint();
  response.receipt.l2_probes = in.varint();
  response.receipt.memo_hits = in.varint();
  response.receipt.memo_misses = in.varint();
  response.receipt.bytes_decoded = in.varint();
  response.receipt.queue_wait_nanos = in.varint();
  response.receipt.wall_nanos = in.varint();
  const std::uint8_t cached = in.u8();
  CL_CHECK_MSG(cached <= 1, "service payload: bad receipt cached flag");
  response.receipt.cached = cached != 0;
  response.introspect = get_string(in);
  // Three retired slots: read and discarded.
  static_cast<void>(in.varint());
  static_cast<void>(in.varint());
  static_cast<void>(in.f64());
  const std::uint64_t pair_count = in.varint();
  CL_CHECK_MSG(pair_count <= 64, "service payload: too many schedule pairs");
  response.schedule.pairs.reserve(pair_count);
  for (std::uint64_t i = 0; i < pair_count; ++i) {
    CoScheduleResult::Pair pair;
    pair.a = in.varint();
    pair.b = in.varint();
    pair.predicted_misses = in.f64();
    response.schedule.pairs.push_back(pair);
  }
  const std::uint64_t unpaired_count = in.varint();
  CL_CHECK_MSG(unpaired_count <= 64,
               "service payload: too many unpaired parties");
  response.schedule.unpaired.reserve(unpaired_count);
  for (std::uint64_t i = 0; i < unpaired_count; ++i) {
    response.schedule.unpaired.push_back(in.varint());
  }
  response.schedule.predicted_total_misses = in.f64();
  const std::uint64_t refine = in.varint();
  CL_CHECK_MSG(refine <= ~std::uint32_t{0},
               "service payload: refine passes out of range");
  response.schedule.refine_passes = static_cast<std::uint32_t>(refine);
  const std::uint64_t verified_count = in.varint();
  CL_CHECK_MSG(verified_count <= 64,
               "service payload: too many verified pairs");
  response.schedule.verified.reserve(verified_count);
  for (std::uint64_t i = 0; i < verified_count; ++i) {
    response.schedule.verified.push_back(in.varint());
  }
  response.receipt.predict_calls = in.varint();
  response.receipt.profile_memo_hits = in.varint();
  CL_CHECK_MSG(in.done(), "service payload: trailing bytes after response");
  return response;
}

void encode_frame_header(const FrameHeader& header,
                         char out[kFrameHeaderBytes]) {
  auto put32 = [](char* p, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  };
  put32(out, kWireMagic);
  out[4] = static_cast<char>(kWireVersion & 0xff);
  out[5] = static_cast<char>((kWireVersion >> 8) & 0xff);
  out[6] = static_cast<char>(header.type);
  out[7] = 0;  // reserved
  put32(out + 8, header.payload_len);
}

FrameHeader decode_frame_header(const char in[kFrameHeaderBytes]) {
  auto get32 = [](const char* p) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[i]))
           << (8 * i);
    }
    return v;
  };
  const std::uint32_t magic = get32(in);
  CL_CHECK_MSG(magic == kWireMagic,
               "service frame: bad magic 0x" << std::hex << magic);
  const unsigned version =
      static_cast<std::uint8_t>(in[4]) |
      (static_cast<unsigned>(static_cast<std::uint8_t>(in[5])) << 8);
  CL_CHECK_MSG(version == kWireVersion,
               "service frame: unsupported wire version "
                   << version << " (this build speaks " << kWireVersion << ")");
  FrameHeader header;
  const std::uint8_t type = static_cast<std::uint8_t>(in[6]);
  CL_CHECK_MSG(type <= static_cast<std::uint8_t>(FrameType::kResponse),
               "service frame: bad frame type");
  header.type = static_cast<FrameType>(type);
  header.payload_len = get32(in + 8);
  CL_CHECK_MSG(header.payload_len <= kMaxPayloadBytes,
               "service frame: payload length " << header.payload_len
                                                << " exceeds cap");
  return header;
}

std::string encode_request_frame(const JobRequest& request) {
  return frame(FrameType::kRequest, encode_request_payload(request));
}

std::string encode_response_frame(const JobResponse& response) {
  return frame(FrameType::kResponse, encode_response_payload(response));
}

}  // namespace codelayout::service
