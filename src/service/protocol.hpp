// Wire schema of the layout-optimization service.
//
// A job names an optimization-pipeline product the daemon can compute — a
// solo or co-run miss-ratio simulation, an optimized layout, or statistics
// over an uploaded trace — and maps directly onto the Lab's typed
// EvalKey/EvalRequest surface. Requests and responses travel as framed
// messages:
//
//   [magic u32][version u16][type u8][reserved u8][payload_len u32][payload]
//
// with a little-endian fixed header and a payload in support/bytes.hpp's
// codec (strings are length-prefixed, doubles travel as IEEE-754 bit
// patterns so responses are byte-deterministic, and an uploaded trace embeds
// trace/io's bytes verbatim). Each message, the header included, is one
// field list in protocol.cpp that the encoder and the decoder both walk, so
// the field order is written down once. Decoding is hardened the same way
// trace/io is: bad magic, unsupported version, truncated or over-long
// payloads, out-of-range enums and flags, lists over their 64-entry cap,
// values too wide for their field, and trailing garbage all throw
// ContractError instead of propagating garbage into the engine.
//
// One dialect: every frame carries kWireVersion, and decode_frame_header
// rejects any other version. The server answers such a frame with a
// JobStatus::kError naming both versions, then hangs up. Every payload field
// is written and read unconditionally, in its field list's order (the
// receipt's retired slots included; see CostReceipt).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/icache_sim.hpp"
#include "harness/eval.hpp"
#include "harness/pipeline.hpp"
#include "trace/trace.hpp"

namespace codelayout::service {

inline constexpr std::uint32_t kWireMagic = 0x434c5356;  // "CLSV"
inline constexpr std::uint16_t kWireVersion = 5;
/// Admission-time cap on one frame's payload (a full varint trace fits
/// comfortably; a hostile length field does not get to allocate gigabytes).
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

enum class FrameType : std::uint8_t { kRequest = 0, kResponse = 1 };

enum class JobKind : std::uint8_t {
  kSolo = 0,        ///< solo miss ratio of (workload, optimizer, measure)
  kLayout = 1,      ///< optimized-layout summary of (workload, optimizer)
  kCorun = 2,       ///< N-party shared-cache co-run over `parties`
  kTraceStats = 3,  ///< statistics of the uploaded varint trace
  kIntrospect = 4,  ///< live daemon state; never queued
  kCoSchedule = 5,  ///< predictor-driven pairing of `parties` onto slots
};

/// What a kIntrospect job reads. Served inline on the submitting thread —
/// snapshots work even while every worker is saturated or the daemon is
/// draining.
enum class IntrospectKind : std::uint8_t {
  kStats = 0,        ///< JSON: queue/cache/job counters + uptime
  kHealth = 1,       ///< JSON: {"status":"ok"|"draining",...} liveness probe
  kMetricsJson = 2,  ///< MetricsRegistry::to_json() (empty when disabled)
  kPrometheus = 3,   ///< MetricsRegistry::dump_prometheus() text exposition
  kRecentJobs = 4,   ///< JSON: {"recent":[...]} last completed, newest first
  kTraceExport = 5,  ///< daemon-side Chrome trace JSON (absolute timestamps)
};

/// Queue class, highest first; FIFO within a class.
enum class JobPriority : std::uint8_t {
  kBatch = 0,
  kNormal = 1,
  kInteractive = 2,
};

enum class JobStatus : std::uint8_t {
  kOk = 0,
  kError = 1,         ///< the job itself failed; see `error`
  kRejected = 2,      ///< admission control: bounded queue full
  kShuttingDown = 3,  ///< server is draining; job was not admitted
};

[[nodiscard]] const char* job_kind_name(JobKind kind);
[[nodiscard]] const char* job_status_name(JobStatus status);
[[nodiscard]] const char* introspect_kind_name(IntrospectKind kind);

/// One co-runner of a kCorun job — the wire shape of a CorunSpec party:
/// the (workload, optimizer) pair resolves to a memoized fetch plan
/// server-side, `speed` is relative to party 0 (see CorunSpec).
struct CorunPartyRequest {
  std::string workload;
  std::optional<Optimizer> optimizer;
  double speed = 1.0;

  friend bool operator==(const CorunPartyRequest&,
                         const CorunPartyRequest&) = default;
};

struct JobRequest {
  std::uint64_t id = 0;  ///< client-chosen correlation id, echoed back
  JobPriority priority = JobPriority::kNormal;
  JobKind kind = JobKind::kSolo;
  Measure measure = Measure::kHardware;
  std::string workload;                ///< kSolo / kLayout
  std::optional<Optimizer> optimizer;  ///< kSolo / kLayout
  /// kCorun: parties[0] measured. kCoSchedule: the candidate program pool
  /// the scheduler pairs onto `slots` (speed fields ignored).
  std::vector<CorunPartyRequest> parties;
  /// kCorun: when true (the default), party speeds are derived from the
  /// workloads' CPIs exactly like Lab::corun (SMT threads progress inversely
  /// to their CPIs) and the wire `speed` fields are ignored; service-path
  /// pair results are then byte-identical to the in-process engine.
  bool cpi_speeds = true;
  /// kTraceStats payload (embedded as trace/io's bytes).
  Trace trace{Trace::Granularity::kBlock};
  /// Cache shape for kSolo / kCorun jobs. The default is the paper's flat
  /// L1I.
  HierarchySpec hierarchy{};
  /// Trace context: a client-assigned correlation pair. 0 = no context.
  /// The daemon tags every span it records for this job with the trace id,
  /// so a merged client+daemon Perfetto export joins on it. Normalized away
  /// in canonical_key(): tracing never changes what work a job names.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  /// What a kIntrospect job reads (ignored for other kinds).
  IntrospectKind introspect = IntrospectKind::kStats;
  /// kCoSchedule: SMT pair slots to assign `parties` onto (required) and
  /// how many of the costliest chosen pairs to verify with the bit-exact
  /// co-run simulator (0 = predictions only).
  std::uint64_t slots = 0;
  std::uint64_t verify_top_k = 0;

  friend bool operator==(const JobRequest&, const JobRequest&) = default;

  /// The request payload of a copy with id zeroed and priority and trace
  /// context normalized: it names the work, so two requests for the same
  /// work share it. perfbench keys its reply checksums on it.
  [[nodiscard]] std::string canonical_key() const;
  /// "solo 403.gcc|BB Affinity|hw" — for logs and errors. A non-default
  /// hierarchy appends "|g=<spec>".
  [[nodiscard]] std::string to_string() const;
};

/// kLayout response payload: the layout's size accounting plus an FNV-1a
/// checksum of the placed block order (enough to pin byte-identity without
/// shipping the whole placement table).
struct LayoutSummary {
  std::uint64_t blocks = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t overhead_bytes = 0;
  std::uint32_t fixups = 0;
  std::uint64_t order_checksum = 0;

  friend bool operator==(const LayoutSummary&, const LayoutSummary&) = default;
};

/// kTraceStats response payload.
struct TraceStatsResult {
  std::uint64_t events = 0;
  std::uint64_t runs = 0;
  std::uint64_t distinct_symbols = 0;
  std::uint64_t checksum = 0;  ///< FNV-1a over the run decomposition

  friend bool operator==(const TraceStatsResult&,
                         const TraceStatsResult&) = default;
};

/// Per-job cost attribution, stamped on every response the daemon sends:
/// where the job's time and simulated work went. Every job executes, so the
/// counts and timings are always this job's own.
///
/// On the wire the receipt also holds five retired slots, which the
/// response's field list writes as 0 and reads and drops, so reply bytes
/// match those of earlier daemons: two varints between `events` and
/// `cache_probes` (the fast and fallback co-run round counts of a deleted
/// co-run fast path), and, after the introspect document, two varints and a
/// double (dispatch_run, dispatch_flat and run_compression of the deleted
/// kernel dispatch).
struct CostReceipt {
  std::uint64_t events = 0;           ///< instructions + overhead simulated
  std::uint64_t cache_probes = 0;     ///< L1I line probes across all results
  std::uint64_t l2_probes = 0;        ///< shared-L2 demand probes
  std::uint64_t memo_hits = 0;        ///< Lab memo cells already computed
  std::uint64_t memo_misses = 0;      ///< Lab memo cells computed for this job
  std::uint64_t bytes_decoded = 0;    ///< request payload bytes
  std::uint64_t queue_wait_nanos = 0;
  std::uint64_t wall_nanos = 0;       ///< execute wall time
  /// Always false: every job executes. Kept on the wire until v6 drops it.
  bool cached = false;
  /// Closed-form predictor attribution — predict_corun evaluations this
  /// job ran, and solo-profile memo lookups served without a kernel pass.
  std::uint64_t predict_calls = 0;
  std::uint64_t profile_memo_hits = 0;

  /// Adds every count and time of `other` (a load run's total); `cached` is
  /// not a count and is left as it is.
  CostReceipt& operator+=(const CostReceipt& other) {
    events += other.events;
    cache_probes += other.cache_probes;
    l2_probes += other.l2_probes;
    memo_hits += other.memo_hits;
    memo_misses += other.memo_misses;
    bytes_decoded += other.bytes_decoded;
    queue_wait_nanos += other.queue_wait_nanos;
    wall_nanos += other.wall_nanos;
    predict_calls += other.predict_calls;
    profile_memo_hits += other.profile_memo_hits;
    return *this;
  }

  friend bool operator==(const CostReceipt&, const CostReceipt&) = default;
};

/// kCoSchedule response payload: the chosen assignment plus the
/// predictor's objective. Pair members are indices into the request's
/// `parties`. The bit-exact simulations of the verified pairs ride in
/// JobResponse::results — two directional SimResults per entry of
/// `verified` (measured-vs-wrapping both ways), in `verified` order.
struct CoScheduleResult {
  struct Pair {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    double predicted_misses = 0.0;

    friend bool operator==(const Pair&, const Pair&) = default;
  };
  std::vector<Pair> pairs;              ///< sorted by first index
  std::vector<std::uint64_t> unpaired;  ///< ascending party indices
  double predicted_total_misses = 0.0;
  std::uint32_t refine_passes = 0;
  std::vector<std::uint64_t> verified;  ///< indices into pairs, cost-desc

  friend bool operator==(const CoScheduleResult&,
                         const CoScheduleResult&) = default;
};

struct JobResponse {
  std::uint64_t id = 0;
  JobStatus status = JobStatus::kOk;
  std::string error;  ///< non-empty iff status != kOk
  /// kSolo: exactly one entry; kCorun: one per party, in party order.
  std::vector<SimResult> results;
  LayoutSummary layout;          ///< kLayout
  TraceStatsResult trace_stats;  ///< kTraceStats
  CostReceipt receipt;           ///< cost attribution
  std::string introspect;        ///< kIntrospect document (JSON or text)
  CoScheduleResult schedule;     ///< kCoSchedule assignment

  friend bool operator==(const JobResponse&, const JobResponse&) = default;
};

// ---- Payload codecs ---------------------------------------------------------

[[nodiscard]] std::string encode_request_payload(const JobRequest& request);
[[nodiscard]] std::string encode_response_payload(const JobResponse& response);

/// Throw ContractError on any malformed payload (truncation, varint
/// overflow, enum out of range, embedded-trace corruption, trailing bytes).
[[nodiscard]] JobRequest decode_request_payload(std::string_view payload);
[[nodiscard]] JobResponse decode_response_payload(std::string_view payload);

// ---- Framing ----------------------------------------------------------------

inline constexpr std::size_t kFrameHeaderBytes = 12;

struct FrameHeader {
  FrameType type = FrameType::kRequest;
  std::uint32_t payload_len = 0;
};

/// Packs/unpacks the fixed 12-byte header. encode_frame_header stamps
/// kWireVersion; decode_frame_header validates magic, version (exactly
/// kWireVersion), type, and the payload-length cap.
void encode_frame_header(const FrameHeader& header, char out[kFrameHeaderBytes]);
[[nodiscard]] FrameHeader decode_frame_header(const char in[kFrameHeaderBytes]);

/// Header + payload in one buffer, ready for a socket write.
[[nodiscard]] std::string encode_request_frame(const JobRequest& request);
[[nodiscard]] std::string encode_response_frame(const JobResponse& response);

}  // namespace codelayout::service
