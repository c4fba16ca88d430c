#include "service/protocol.hpp"

#include <sstream>

#include "support/bytes.hpp"
#include "support/check.hpp"
#include "trace/io.hpp"

namespace codelayout::service {
namespace {

/// Cap on every list a payload carries: parties, results, schedule pairs,
/// unpaired parties and verified pairs.
constexpr std::uint64_t kMaxListEntries = 64;

// A request embeds two other formats' bytes behind a varint length: the
// uploaded trace (trace/io; an empty blob is an empty block trace) and the
// cache shape (HierarchySpec, validated as it decodes).

void embed(ByteWriter& out, const Trace& trace) {
  out.bytes(encode_trace(trace));
}

void embed(ByteReader& in, Trace& trace) {
  const std::string_view bytes = in.bytes();
  trace = bytes.empty() ? Trace{Trace::Granularity::kBlock}
                        : decode_trace(bytes);
}

void embed(ByteWriter& out, const HierarchySpec& hierarchy) {
  out.bytes(hierarchy.encode());
}

void embed(ByteReader& in, HierarchySpec& hierarchy) {
  hierarchy = HierarchySpec::decode(in.bytes());
  hierarchy.validate();
}

// One field list per message, walked by ByteWriter to encode and by
// ByteReader to decode; each reader check names its field.

template <class Codec, class Opt>
void optimizer_fields(Codec& c, Opt& optimizer) {
  c.optional(optimizer, "bad optimizer presence flag", [&](auto& o) {
    c.enumeration(o.model, ModelKind::kTrg, "optimizer model out of range");
    c.enumeration(o.granularity, Granularity::kBlock,
                  "optimizer granularity out of range");
  });
}

template <class Codec, class Party>
void party_fields(Codec& c, Party& party) {
  c.bytes(party.workload);
  optimizer_fields(c, party.optimizer);
  c.f64(party.speed);
}

template <class Codec, class Request>
void request_fields(Codec& c, Request& r) {
  c.varint(r.id);
  c.enumeration(r.priority, JobPriority::kInteractive,
                "priority out of range");
  c.enumeration(r.kind, JobKind::kCoSchedule, "job kind out of range");
  c.enumeration(r.measure, Measure::kHardware, "measure out of range");
  c.bytes(r.workload);
  optimizer_fields(c, r.optimizer);
  c.list(r.parties, kMaxListEntries, "too many co-run parties",
         [&](auto& party) { party_fields(c, party); });
  c.flag(r.cpi_speeds, "bad cpi_speeds flag");
  embed(c, r.trace);
  embed(c, r.hierarchy);
  c.varint(r.trace_id);
  c.varint(r.span_id);
  c.enumeration(r.introspect, IntrospectKind::kTraceExport,
                "introspect kind out of range");
  c.varint(r.slots);
  c.varint(r.verify_top_k);
}

template <class Codec, class Result>
void sim_result_fields(Codec& c, Result& r) {
  c.varint(r.instructions);
  c.varint(r.overhead_instructions);
  c.varint(r.line_probes);
  c.varint(r.demand_misses);
  c.varint(r.wrong_path_misses);
  c.varint(r.blocks);
  c.varint(r.l2_probes);  // zero under a flat hierarchy
  c.varint(r.l2_misses);
}

template <class Codec, class Schedule>
void schedule_fields(Codec& c, Schedule& s) {
  c.list(s.pairs, kMaxListEntries, "too many schedule pairs",
         [&](auto& pair) {
           c.varint(pair.a);
           c.varint(pair.b);
           c.f64(pair.predicted_misses);
         });
  c.list(s.unpaired, kMaxListEntries, "too many unpaired parties",
         [&](auto& index) { c.varint(index); });
  c.f64(s.predicted_total_misses);
  c.varint32(s.refine_passes, "refine passes out of range");
  c.list(s.verified, kMaxListEntries, "too many verified pairs",
         [&](auto& index) { c.varint(index); });
}

/// The response, its receipt spread over three stretches. The receipt's
/// five retired slots are written 0 and read into these locals, which are
/// then dropped, so reply bytes stay those of earlier daemons (see
/// CostReceipt).
template <class Codec, class Response>
void response_fields(Codec& c, Response& r) {
  std::uint64_t rounds_fast = 0;      // the deleted co-run collapse
  std::uint64_t rounds_fallback = 0;  // the deleted co-run collapse
  std::uint64_t dispatch_run = 0;     // the deleted kernel dispatch
  std::uint64_t dispatch_flat = 0;    // the deleted kernel dispatch
  double run_compression = 0.0;       // the deleted kernel dispatch
  c.varint(r.id);
  c.enumeration(r.status, JobStatus::kShuttingDown, "status out of range");
  c.bytes(r.error);
  c.list(r.results, kMaxListEntries, "too many results",
         [&](auto& result) { sim_result_fields(c, result); });
  c.varint(r.layout.blocks);
  c.varint(r.layout.total_bytes);
  c.varint(r.layout.overhead_bytes);
  c.varint32(r.layout.fixups, "fixup count out of range");
  c.varint(r.layout.order_checksum);
  c.varint(r.trace_stats.events);
  c.varint(r.trace_stats.runs);
  c.varint(r.trace_stats.distinct_symbols);
  c.varint(r.trace_stats.checksum);
  c.varint(r.receipt.events);
  c.varint(rounds_fast);
  c.varint(rounds_fallback);
  c.varint(r.receipt.cache_probes);
  c.varint(r.receipt.l2_probes);
  c.varint(r.receipt.memo_hits);
  c.varint(r.receipt.memo_misses);
  c.varint(r.receipt.bytes_decoded);
  c.varint(r.receipt.queue_wait_nanos);
  c.varint(r.receipt.wall_nanos);
  c.flag(r.receipt.cached, "bad receipt cached flag");
  c.bytes(r.introspect);
  c.varint(dispatch_run);
  c.varint(dispatch_flat);
  c.f64(run_compression);
  schedule_fields(c, r.schedule);
  c.varint(r.receipt.predict_calls);
  c.varint(r.receipt.profile_memo_hits);
}

/// The 12-byte frame header as it travels. Its checks run after the walk,
/// so a garbage header is reported by its magic first.
struct WireHeader {
  std::uint32_t magic = kWireMagic;
  std::uint16_t version = kWireVersion;
  std::uint8_t type = 0;
  std::uint8_t reserved = 0;
  std::uint32_t payload_len = 0;
};

template <class Codec, class Header>
void frame_header_fields(Codec& c, Header& h) {
  c.u32(h.magic);
  c.u16(h.version);
  c.u8(h.type);
  c.u8(h.reserved);
  c.u32(h.payload_len);
}

std::string frame(FrameType type, const std::string& payload) {
  CL_CHECK_MSG(payload.size() <= kMaxPayloadBytes,
               "service frame payload too large: " << payload.size()
                                                   << " bytes");
  std::string out(kFrameHeaderBytes, '\0');
  encode_frame_header({type, static_cast<std::uint32_t>(payload.size())},
                      out.data());
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
  JobRequest key = *this;
  key.id = 0;
  key.priority = JobPriority::kNormal;
  key.trace_id = 0;
  key.span_id = 0;
  return encode_request_payload(key);
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
  ByteWriter out;
  request_fields(out, request);
  return std::move(out.out);
}

std::string encode_response_payload(const JobResponse& response) {
  ByteWriter out;
  response_fields(out, response);
  return std::move(out.out);
}

JobRequest decode_request_payload(std::string_view payload) {
  ByteReader in(payload, "service payload");
  JobRequest request;
  request_fields(in, request);
  in.finish("trailing bytes after request");
  return request;
}

JobResponse decode_response_payload(std::string_view payload) {
  ByteReader in(payload, "service payload");
  JobResponse response;
  response_fields(in, response);
  in.finish("trailing bytes after response");
  return response;
}

void encode_frame_header(const FrameHeader& header,
                         char out[kFrameHeaderBytes]) {
  const WireHeader wire{.type = static_cast<std::uint8_t>(header.type),
                        .payload_len = header.payload_len};
  ByteWriter bytes;
  frame_header_fields(bytes, wire);
  bytes.out.copy(out, kFrameHeaderBytes);
}

FrameHeader decode_frame_header(const char in[kFrameHeaderBytes]) {
  ByteReader bytes({in, kFrameHeaderBytes}, "service frame");
  WireHeader wire;
  frame_header_fields(bytes, wire);
  bytes.check(wire.magic == kWireMagic, "bad magic 0x", std::hex, wire.magic);
  bytes.check(wire.version == kWireVersion, "unsupported wire version ",
              wire.version, " (this build speaks ", kWireVersion, ")");
  bytes.check(wire.type <= static_cast<std::uint8_t>(FrameType::kResponse),
              "bad frame type");
  bytes.check(wire.payload_len <= kMaxPayloadBytes, "payload length ",
              wire.payload_len, " exceeds cap");
  return FrameHeader{static_cast<FrameType>(wire.type), wire.payload_len};
}

std::string encode_request_frame(const JobRequest& request) {
  return frame(FrameType::kRequest, encode_request_payload(request));
}

std::string encode_response_frame(const JobResponse& response) {
  return frame(FrameType::kResponse, encode_response_payload(response));
}

}  // namespace codelayout::service
