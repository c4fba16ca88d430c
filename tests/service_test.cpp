// Tests for the layout-optimization service (DESIGN.md §12): wire-protocol
// round-trips and hostile-stream hardening, repeated jobs answered from the
// Lab's memo, admission control / prioritization / graceful shutdown on an
// injected gated executor, and the golden round-trip — jobs driven through a
// real unix socket answer byte-identically to the in-process engine.
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/options.hpp"
#include "json_lint.hpp"
#include "perfmodel/scheduler.hpp"
#include "prom_lint.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/check.hpp"
#include "support/trace_recorder.hpp"

namespace codelayout::service {
namespace {

JobRequest solo_request(std::string workload,
                        std::optional<Optimizer> optimizer, Measure measure,
                        std::uint64_t id = 1) {
  JobRequest request;
  request.id = id;
  request.kind = JobKind::kSolo;
  request.workload = std::move(workload);
  request.optimizer = optimizer;
  request.measure = measure;
  return request;
}

Trace synthetic_trace() {
  Trace trace{Trace::Granularity::kBlock};
  for (std::uint32_t i = 0; i < 64; ++i) trace.push_run(i % 7, 1 + i % 5);
  return trace;
}

// ---- Protocol ---------------------------------------------------------------

TEST(ServiceProtocol, RequestRoundTripsEveryKind) {
  std::vector<JobRequest> requests;
  requests.push_back(solo_request("429.mcf", kBBAffinity, Measure::kHardware,
                                  42));
  requests.push_back(solo_request("458.sjeng", std::nullopt,
                                  Measure::kSimulator, 7));

  JobRequest layout;
  layout.id = 3;
  layout.priority = JobPriority::kInteractive;
  layout.kind = JobKind::kLayout;
  layout.workload = "429.mcf";
  layout.optimizer = kFuncTrg;
  requests.push_back(layout);

  JobRequest corun;
  corun.id = ~std::uint64_t{0};  // varint edge: all 64 bits set
  corun.priority = JobPriority::kBatch;
  corun.kind = JobKind::kCorun;
  corun.measure = Measure::kHardware;
  corun.cpi_speeds = false;
  corun.parties.push_back({"429.mcf", kBBAffinity, 1.0});
  corun.parties.push_back({"458.sjeng", std::nullopt, 1.25});
  corun.parties.push_back({"403.gcc", kFuncAffinity, 0.5});
  requests.push_back(corun);

  JobRequest stats;
  stats.id = 9;
  stats.kind = JobKind::kTraceStats;
  stats.trace = synthetic_trace();
  requests.push_back(stats);

  for (const JobRequest& request : requests) {
    const std::string payload = encode_request_payload(request);
    const JobRequest decoded = decode_request_payload(payload);
    EXPECT_EQ(decoded, request) << request.to_string();
  }
}

TEST(ServiceProtocol, ResponseRoundTrips) {
  JobResponse response;
  response.id = 77;
  response.status = JobStatus::kOk;
  SimResult r;
  r.instructions = 123456789;
  r.overhead_instructions = 42;
  r.line_probes = 999;
  r.demand_misses = 1234;
  r.wrong_path_misses = 5;
  r.blocks = 777;
  response.results = {r, SimResult{}};
  response.layout = {1000, 64000, 512, 33, 0xdeadbeefcafef00dull};
  response.trace_stats = {5000, 1200, 97, 0x1234567890abcdefull};

  const JobResponse decoded =
      decode_response_payload(encode_response_payload(response));
  EXPECT_EQ(decoded, response);

  JobResponse error;
  error.id = 1;
  error.status = JobStatus::kRejected;
  error.error = "job queue is full (depth 4)";
  EXPECT_EQ(decode_response_payload(encode_response_payload(error)), error);
}

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

TEST(ServiceProtocol, CorunReplyBytesArePinned) {
  // A kOk two-party co-run reply with a zeroed receipt, encoded at the
  // current wire version. The literal was captured from the encoder while
  // the receipt still carried the co-run round counters; their two retired
  // slots must stay on the wire as zero varints, so dropping them (or any
  // other reply-layout change) fails here.
  JobResponse response;
  response.id = 7;
  response.status = JobStatus::kOk;
  SimResult self;
  self.instructions = 1234567;
  self.overhead_instructions = 321;
  self.line_probes = 456789;
  self.demand_misses = 4321;
  self.wrong_path_misses = 17;
  self.blocks = 98765;
  SimResult peer;
  peer.instructions = 2345678;
  peer.line_probes = 567890;
  peer.demand_misses = 9876;
  peer.blocks = 123456;
  peer.l2_probes = 3000;
  peer.l2_misses = 250;
  response.results = {self, peer};

  const std::string payload = encode_response_payload(response);
  EXPECT_EQ(to_hex(payload),
            "07" "00" "00" "02"                        // id, kOk, error, count
            "87ad4b" "c102" "d5f01b" "e121" "11"       // self ...
            "cd8306" "00" "00"                         //   ... blocks, L2
            "ce958f01" "00" "d2d422" "944d" "00"       // peer ...
            "c0c407" "b817" "fa01"                     //   ... blocks, L2
            "0000000000"                               // layout summary
            "00000000"                                 // trace stats
            "00" "0000" "0000000000000000" "00"        // receipt: events,
                                                       // retired slots, ...
            "0000" "0000000000000000"                  // 3 retired slots
            "00" "00" "0000000000000000" "00" "00"     // schedule ...
            "0000");                                   //   ... predictor
  EXPECT_EQ(decode_response_payload(payload), response);
}

TEST(ServiceProtocol, EveryFieldOfARequestAndAResponseIsPinned) {
  // Every field set to a distinct value, so the order of each field list,
  // the receipt's and the schedule's included, is pinned byte by byte: a
  // field moved within its list changes these bytes, and with them the
  // reply checksums of every daemon that came before.
  JobRequest request;
  request.id = 300;
  request.priority = JobPriority::kInteractive;
  request.kind = JobKind::kCorun;
  request.measure = Measure::kSimulator;
  request.workload = "w";
  request.optimizer = kBBTrg;
  request.parties.push_back({"a", kFuncAffinity, 1.5});
  request.parties.push_back({"b", std::nullopt, 0.5});
  request.cpi_speeds = false;
  request.trace = Trace{Trace::Granularity::kFunction};
  request.trace.push_run(3, 2);
  request.trace.push_symbol(200);
  request.hierarchy.l2 = CacheGeometry{256 * 1024, 8, 64};
  request.trace_id = 0x1234;
  request.span_id = 5;
  request.introspect = IntrospectKind::kRecentJobs;
  request.slots = 2;
  request.verify_top_k = 1;
  const std::string request_payload = encode_request_payload(request);
  EXPECT_EQ(to_hex(request_payload),
            "ac02" "02" "02" "00" "0177" "010101"  // id ... workload, optimizer
            "02" "0161" "010000" "000000000000f83f"  // parties: a, ...
            "0162" "00" "000000000000e03f"           //   ... b
            "00"                                     // cpi_speeds
            "21" "52544c43" "02000000" "01000000"    // trace: header ...
            "0300000000000000" "0200000000000000"    //   ... counts,
            "0302" "c80101"                          //   runs (3, 2), (200, 1)
            "23" "808002" "04" "40"                  // hierarchy: L1,
            "01" "808010" "08" "40"                  //   L2,
            "000000000000f03f" "0000000000001c40"    //   latencies
            "0000000000804140"
            "b424" "05" "04" "02" "01");  // trace context, introspect, slots
  EXPECT_EQ(decode_request_payload(request_payload), request);

  JobResponse response;
  response.id = 9;
  response.status = JobStatus::kError;
  response.error = "e";
  response.results = {SimResult{1, 2, 3, 4, 5, 6, 7, 8}};
  response.layout = {10, 11, 12, 13, 14};
  response.trace_stats = {15, 16, 17, 18};
  response.receipt = {19, 20, 21, 22, 23, 24, 25, 26, true, 27, 28};
  response.introspect = "i";
  response.schedule.pairs = {{0, 1, 2.0}};
  response.schedule.unpaired = {2};
  response.schedule.predicted_total_misses = 0.5;
  response.schedule.refine_passes = 3;
  response.schedule.verified = {0};
  const std::string response_payload = encode_response_payload(response);
  EXPECT_EQ(to_hex(response_payload),
            "09" "01" "0165" "01"                     // id ... result count
            "0102030405060708"                        // the result
            "0a0b0c0d0e" "0f101112"                   // layout, trace stats
            "13" "0000" "1415161718191a" "01"          // receipt: events,
                                                      // retired slots, ...
            "0169"                                    // introspect
            "0000" "0000000000000000"                 // 3 retired slots
            "01" "00" "01" "0000000000000040"         // schedule: pairs,
            "01" "02" "000000000000e03f" "03" "0100"  //   ... verified
            "1b1c");                                  // predictor
  EXPECT_EQ(decode_response_payload(response_payload), response);
}

TEST(ServiceProtocol, CanonicalKeyNormalizesIdAndPriority) {
  JobRequest a = solo_request("429.mcf", kBBAffinity, Measure::kHardware, 1);
  JobRequest b = solo_request("429.mcf", kBBAffinity, Measure::kHardware, 999);
  a.priority = JobPriority::kBatch;
  b.priority = JobPriority::kInteractive;
  EXPECT_EQ(a.canonical_key(), b.canonical_key());

  const JobRequest c =
      solo_request("429.mcf", kBBAffinity, Measure::kSimulator, 1);
  EXPECT_NE(a.canonical_key(), c.canonical_key());
}

TEST(ServiceProtocol, FrameHeaderRoundTrips) {
  FrameHeader header;
  header.type = FrameType::kResponse;
  header.payload_len = 123456;
  char bytes[kFrameHeaderBytes];
  encode_frame_header(header, bytes);
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[4]) |
                (static_cast<std::uint8_t>(bytes[5]) << 8),
            kWireVersion);
  const FrameHeader decoded = decode_frame_header(bytes);
  EXPECT_EQ(decoded.type, FrameType::kResponse);
  EXPECT_EQ(decoded.payload_len, 123456u);
}

TEST(ServiceProtocol, RejectsHostileFrames) {
  FrameHeader header;
  header.payload_len = 4;
  char good[kFrameHeaderBytes];
  encode_frame_header(header, good);

  char bad_magic[kFrameHeaderBytes];
  std::memcpy(bad_magic, good, sizeof(good));
  bad_magic[0] = 'X';
  EXPECT_THROW((void)decode_frame_header(bad_magic), ContractError);

  char bad_version[kFrameHeaderBytes];
  std::memcpy(bad_version, good, sizeof(good));
  bad_version[4] = 99;
  EXPECT_THROW((void)decode_frame_header(bad_version), ContractError);

  char bad_type[kFrameHeaderBytes];
  std::memcpy(bad_type, good, sizeof(good));
  bad_type[6] = 9;
  EXPECT_THROW((void)decode_frame_header(bad_type), ContractError);

  char huge_payload[kFrameHeaderBytes];
  std::memcpy(huge_payload, good, sizeof(good));
  huge_payload[11] = 0x7f;  // payload_len > kMaxPayloadBytes
  EXPECT_THROW((void)decode_frame_header(huge_payload), ContractError);
}

TEST(ServiceProtocol, RejectsHostilePayloads) {
  const std::string payload = encode_request_payload(
      solo_request("429.mcf", kBBAffinity, Measure::kHardware));

  // Truncation at every length must throw, never read out of bounds.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW((void)decode_request_payload(payload.substr(0, len)),
                 ContractError)
        << "truncated to " << len;
  }
  // Trailing garbage.
  EXPECT_THROW((void)decode_request_payload(payload + "x"), ContractError);

  // Out-of-range enums: byte 1 is the priority, byte 2 the job kind.
  std::string bad_priority = payload;
  bad_priority[1] = 17;
  EXPECT_THROW((void)decode_request_payload(bad_priority), ContractError);
  std::string bad_kind = payload;
  bad_kind[2] = 17;
  EXPECT_THROW((void)decode_request_payload(bad_kind), ContractError);

  // A corrupt embedded trace blob must throw, not crash. Aim the bit flip
  // at the middle of the trace region: the payload ends with the hierarchy
  // blob (length prefix + encoding), three trace-context bytes (trace_id,
  // span_id, introspect), and two co-schedule bytes (slots, verify_top_k),
  // which must be skipped or the flip may land in a latency double and
  // still decode cleanly.
  JobRequest stats;
  stats.kind = JobKind::kTraceStats;
  stats.trace = synthetic_trace();
  std::string stats_payload = encode_request_payload(stats);
  const std::size_t tail = stats.hierarchy.encode().size() + 1 + 3 + 2;
  ASSERT_GT(stats_payload.size(), tail);
  stats_payload[(stats_payload.size() - tail) / 2] ^= 0x5a;
  EXPECT_THROW((void)decode_request_payload(stats_payload), std::exception);
}

TEST(ServiceProtocol, RejectsTheFirstIllegalValueOfEveryEnumByte) {
  // Each enum byte is set to its largest legal value, which must decode,
  // then to one past it, which must not. The id, slots and verify_top_k
  // are one-byte varints, so the request's priority, kind and measure are
  // bytes 1-3 and its introspect byte is third from the end. The response
  // status is byte 1; the cached flag is followed by 25 bytes (see
  // RejectsHostileV3Tails).
  const std::string request = encode_request_payload(
      solo_request("429.mcf", kBBAffinity, Measure::kHardware, 1));
  JobResponse ok;
  ok.id = 1;
  const std::string response = encode_response_payload(ok);
  struct Case {
    const char* field;
    const std::string& payload;
    std::size_t offset;
    unsigned first_illegal;
    unsigned (*decoded)(std::string_view);  ///< the field, decoded
  };
  const Case cases[] = {
      {"priority", request, 1, 3,
       [](std::string_view p) {
         return static_cast<unsigned>(decode_request_payload(p).priority);
       }},
      {"kind", request, 2, 6,
       [](std::string_view p) {
         return static_cast<unsigned>(decode_request_payload(p).kind);
       }},
      {"measure", request, 3, 2,
       [](std::string_view p) {
         return static_cast<unsigned>(decode_request_payload(p).measure);
       }},
      {"introspect", request, request.size() - 3, 6,
       [](std::string_view p) {
         return static_cast<unsigned>(decode_request_payload(p).introspect);
       }},
      {"status", response, 1, 4,
       [](std::string_view p) {
         return static_cast<unsigned>(decode_response_payload(p).status);
       }},
      {"cached", response, response.size() - 26, 2,
       [](std::string_view p) {
         const JobResponse decoded = decode_response_payload(p);
         return static_cast<unsigned>(decoded.receipt.cached);
       }},
  };
  for (const Case& c : cases) {
    std::string bytes = c.payload;
    bytes[c.offset] = static_cast<char>(c.first_illegal - 1);
    EXPECT_EQ(c.decoded(bytes), c.first_illegal - 1) << c.field;
    bytes[c.offset] = static_cast<char>(c.first_illegal);
    EXPECT_THROW(static_cast<void>(c.decoded(bytes)), ContractError)
        << c.field;
  }
}

TEST(ServiceProtocol, HierarchyRoundTripsThroughRequestPayload) {
  JobRequest request = solo_request("429.mcf", kBBAffinity, Measure::kHardware);
  request.hierarchy.l1 = CacheGeometry{16 * 1024, 2, 64};
  request.hierarchy.l2 = CacheGeometry{256 * 1024, 8, 64};
  request.hierarchy.l2_hit_cycles = 9.0;
  request.hierarchy.memory_cycles = 41.0;

  const JobRequest decoded =
      decode_request_payload(encode_request_payload(request));
  EXPECT_EQ(decoded, request);
  EXPECT_EQ(decoded.hierarchy.to_string(), "16K/2/64+l2=256K/8/64");

  // The hierarchy is part of the job identity: the same workload under a
  // different geometry names different work.
  const JobRequest flat =
      solo_request("429.mcf", kBBAffinity, Measure::kHardware);
  EXPECT_NE(request.canonical_key(), flat.canonical_key());

  // An invalid spec on the wire (L2 smaller than L1) must be rejected at
  // decode time, before any job touches the engine.
  JobRequest bad = request;
  bad.hierarchy.l2 = CacheGeometry{8 * 1024, 8, 64};
  EXPECT_THROW((void)decode_request_payload(encode_request_payload(bad)),
               ContractError);
}

TEST(ServiceProtocol, CoScheduleRoundTrips) {
  // The co-schedule request fields (slots, verify_top_k), the
  // CoScheduleResult response block, and the predictor receipt varints.
  JobRequest request;
  request.id = 31;
  request.kind = JobKind::kCoSchedule;
  request.parties.push_back({"429.mcf", kBBAffinity, 1.0});
  request.parties.push_back({"458.sjeng", std::nullopt, 1.0});
  request.parties.push_back({"403.gcc", kFuncAffinity, 1.0});
  request.slots = 2;
  request.verify_top_k = 1;
  const JobRequest decoded =
      decode_request_payload(encode_request_payload(request));
  EXPECT_EQ(decoded, request);
  EXPECT_EQ(decoded.slots, 2u);
  EXPECT_EQ(decoded.verify_top_k, 1u);

  // The problem shape is part of the job identity: the same pool under a
  // different slot count names different work.
  JobRequest other_slots = request;
  other_slots.slots = 3;
  EXPECT_NE(request.canonical_key(), other_slots.canonical_key());

  // Response side: the schedule block round-trips.
  JobResponse response;
  response.id = 31;
  response.status = JobStatus::kOk;
  response.schedule.pairs = {{0, 2, 1234.5}, {1, 3, 99.25}};
  response.schedule.unpaired = {4};
  response.schedule.predicted_total_misses = 1500.75;
  response.schedule.refine_passes = 2;
  response.schedule.verified = {0};
  response.receipt.predict_calls = 10;
  response.receipt.profile_memo_hits = 5;
  const std::string payload = encode_response_payload(response);
  EXPECT_EQ(decode_response_payload(payload), response);

  // The schedule block and the predictor varints end the payload. Cleared,
  // they are its last 14 bytes: two zero counts, an 8-byte double,
  // refine_passes, the verified count, and two predictor varints.
  JobResponse cleared = response;
  cleared.schedule = CoScheduleResult{};
  cleared.receipt.predict_calls = 0;
  cleared.receipt.profile_memo_hits = 0;
  const std::string cleared_payload = encode_response_payload(cleared);
  ASSERT_GT(cleared_payload.size(), 14u);
  const std::size_t tail_start = cleared_payload.size() - 14;
  ASSERT_GT(payload.size(), tail_start);
  EXPECT_EQ(payload.substr(0, tail_start),
            cleared_payload.substr(0, tail_start));

  // Truncating anywhere inside the schedule tail must throw, never
  // half-decode.
  for (std::size_t cut = 1; cut <= payload.size() - tail_start; ++cut) {
    const std::string_view truncated =
        std::string_view(payload).substr(0, payload.size() - cut);
    EXPECT_THROW(static_cast<void>(decode_response_payload(truncated)),
                 ContractError)
        << "cut " << cut;
  }

  // A hostile pair count (> 64) must be rejected before any allocation of
  // that size. The pair count is the first byte of the tail.
  std::string hostile = cleared_payload;
  hostile[tail_start] = '\x41';  // claims 65 pairs
  EXPECT_THROW(static_cast<void>(decode_response_payload(hostile)),
               ContractError);
}

// ---- Server: admission, priorities, shutdown (gated executor) ---------------

/// Deterministic test executor: execute() blocks until open() so tests can
/// fill the queue, then records execution order.
class GatedExecutor : public JobExecutor {
 public:
  JobResponse execute(const JobRequest& request) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++started_;
    started_cv_.notify_all();
    open_cv_.wait(lock, [this] { return open_; });
    order_.push_back(request.id);
    JobResponse response;
    response.id = request.id;
    response.trace_stats.checksum = request.id;  // deterministic payload
    return response;
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    open_cv_.notify_all();
  }

  /// Blocks until `n` execute() calls have started (i.e. are in-flight).
  void wait_started(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    started_cv_.wait(lock, [&] { return started_ >= n; });
  }

  std::vector<std::uint64_t> order() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  std::mutex mu_;
  std::condition_variable started_cv_;
  std::condition_variable open_cv_;
  std::size_t started_ = 0;
  bool open_ = false;
  std::vector<std::uint64_t> order_;
};

/// Collects delivered responses across threads.
class Deliveries {
 public:
  std::function<void(JobResponse)> sink() {
    return [this](JobResponse response) {
      std::lock_guard<std::mutex> lock(mu_);
      responses_.push_back(std::move(response));
    };
  }
  std::vector<JobResponse> all() {
    std::lock_guard<std::mutex> lock(mu_);
    return responses_;
  }

 private:
  std::mutex mu_;
  std::vector<JobResponse> responses_;
};

ServerConfig small_config(unsigned workers, std::size_t depth) {
  ServerConfig config;
  config.workers = workers;
  config.queue_depth = depth;
  return config;
}

TEST(ServiceServer, BoundedQueueRejectsWhenFull) {
  auto executor = std::make_unique<GatedExecutor>();
  GatedExecutor& gate = *executor;
  ServiceServer server(small_config(1, 2), std::move(executor));
  Deliveries delivered;

  server.submit(solo_request("a", std::nullopt, Measure::kHardware, 1),
                delivered.sink());
  gate.wait_started(1);  // job 1 is in-flight; the queue is empty again
  server.submit(solo_request("b", std::nullopt, Measure::kHardware, 2),
                delivered.sink());
  server.submit(solo_request("c", std::nullopt, Measure::kHardware, 3),
                delivered.sink());
  // Depth 2 is exhausted: the fourth submission answers kRejected inline.
  server.submit(solo_request("d", std::nullopt, Measure::kHardware, 4),
                delivered.sink());

  auto rejected = delivered.all();
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].id, 4u);
  EXPECT_EQ(rejected[0].status, JobStatus::kRejected);
  EXPECT_NE(rejected[0].error.find("queue is full"), std::string::npos);

  gate.open();
  server.shutdown();
  const auto all = delivered.all();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.stats().completed, 3u);
}

TEST(ServiceServer, HigherPriorityClassesRunFirst) {
  auto executor = std::make_unique<GatedExecutor>();
  GatedExecutor& gate = *executor;
  ServiceServer server(small_config(1, 16), std::move(executor));
  Deliveries delivered;

  auto submit = [&](std::uint64_t id, JobPriority priority) {
    JobRequest request = solo_request("w", std::nullopt, Measure::kHardware,
                                      id);
    request.priority = priority;
    server.submit(std::move(request), delivered.sink());
  };
  submit(1, JobPriority::kNormal);  // picked up immediately, blocks on gate
  gate.wait_started(1);
  submit(2, JobPriority::kBatch);
  submit(3, JobPriority::kBatch);
  submit(4, JobPriority::kNormal);
  submit(5, JobPriority::kInteractive);
  submit(6, JobPriority::kInteractive);

  gate.open();
  server.shutdown();
  // Interactive first (FIFO within the class), then normal, then batch.
  EXPECT_EQ(gate.order(),
            (std::vector<std::uint64_t>{1, 5, 6, 4, 2, 3}));
}

TEST(ServiceServer, GracefulShutdownDrainsQueuedAndInflightJobs) {
  auto executor = std::make_unique<GatedExecutor>();
  GatedExecutor& gate = *executor;
  ServiceServer server(small_config(2, 16), std::move(executor));
  Deliveries delivered;

  for (std::uint64_t id = 1; id <= 6; ++id) {
    server.submit(solo_request("w", std::nullopt, Measure::kHardware, id),
                  delivered.sink());
  }
  gate.wait_started(2);  // both workers hold in-flight jobs; four queued

  std::thread closer([&] { server.shutdown(); });
  gate.open();
  closer.join();

  // Every job — queued and in-flight — reached its deliver callback.
  const auto all = delivered.all();
  ASSERT_EQ(all.size(), 6u);
  for (const JobResponse& response : all) {
    EXPECT_EQ(response.status, JobStatus::kOk);
  }
  EXPECT_EQ(server.stats().completed, 6u);

  // After the drain, the server stays up but admits nothing.
  server.submit(solo_request("late", std::nullopt, Measure::kHardware, 99),
                delivered.sink());
  const auto late = delivered.all().back();
  EXPECT_EQ(late.id, 99u);
  EXPECT_EQ(late.status, JobStatus::kShuttingDown);
  EXPECT_EQ(server.stats().shutdown_rejected, 1u);
}

/// Counts executions; responses are a pure function of the request.
class CountingExecutor : public JobExecutor {
 public:
  JobResponse execute(const JobRequest& request) override {
    executed.fetch_add(1);
    JobResponse response;
    response.id = request.id;
    if (request.workload == "fails") {
      response.status = JobStatus::kError;
      response.error = "synthetic failure";
    } else {
      response.trace_stats.events = request.workload.size();
    }
    return response;
  }
  std::atomic<std::uint64_t> executed{0};
};

TEST(ServiceServer, RepeatedJobRunsAgainOnTheLabMemo) {
  ServerConfig config;
  config.workers = 1;
  ServiceServer server(config,
                       std::make_unique<LabExecutor>(LabOptions{}.threads(2)));

  const JobResponse first = server.call(
      solo_request("458.sjeng", kFuncAffinity, Measure::kHardware, 1));
  ASSERT_EQ(first.status, JobStatus::kOk) << first.error;
  // The same work under a new id, priority and trace id.
  JobRequest repeat =
      solo_request("458.sjeng", kFuncAffinity, Measure::kHardware, 2);
  repeat.priority = JobPriority::kInteractive;
  repeat.trace_id = 77;
  repeat.span_id = 78;
  const JobResponse second = server.call(repeat);
  ASSERT_EQ(second.status, JobStatus::kOk) << second.error;
  EXPECT_EQ(second.id, 2u);

  // With id and receipt zeroed (perfbench's reply-checksum normalization),
  // the repeat's reply is the first one's, byte for byte.
  const auto normalized = [](JobResponse response) {
    response.id = 0;
    response.receipt = CostReceipt{};
    return encode_response_payload(response);
  };
  EXPECT_EQ(normalized(second), normalized(first));

  // The repeat ran on a worker, and the Lab's memo answered every cell.
  EXPECT_GT(first.receipt.memo_misses, 0u);
  EXPECT_EQ(second.receipt.memo_misses, 0u);
  EXPECT_GT(second.receipt.memo_hits, 0u);
  EXPECT_GT(second.receipt.wall_nanos, 0u);
  EXPECT_FALSE(second.receipt.cached);
  EXPECT_EQ(server.stats().completed, 2u);
  server.shutdown();
}

TEST(ServiceServer, FailingJobRunsAgain) {
  auto executor = std::make_unique<CountingExecutor>();
  CountingExecutor& counter = *executor;
  ServerConfig config;
  config.workers = 1;
  ServiceServer server(config, std::move(executor));

  const JobRequest bad = solo_request("fails", std::nullopt,
                                      Measure::kHardware, 1);
  EXPECT_EQ(server.call(bad).status, JobStatus::kError);
  EXPECT_EQ(server.call(bad).status, JobStatus::kError);
  EXPECT_EQ(counter.executed.load(), 2u);
}

TEST(ServiceServer, SubmitRacingShutdownAlwaysDelivers) {
  // Regression: a job enqueued after shutdown() set draining_ sat in a queue
  // no worker would read, which wedged call() and shutdown() forever. Each
  // racing submit must either be admitted before the drain (and run) or
  // answer kShuttingDown inline.
  constexpr int kRounds = 32;
  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 8;
  for (int round = 0; round < kRounds; ++round) {
    ServerConfig config;
    config.workers = 2;
    config.queue_depth = 64;
    ServiceServer server(config, std::make_unique<CountingExecutor>());
    Deliveries delivered;

    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        // Pre-built name: keeps GCC 12's -Wrestrict checker away from the
        // inlined char*+string concatenation it misdiagnoses at -O2.
        std::string workload = "w";
        workload += std::to_string(t % 2);
        for (int j = 0; j < kJobsPerThread; ++j) {
          server.submit(
              solo_request(workload, std::nullopt, Measure::kHardware,
                           static_cast<std::uint64_t>(t * 100 + j + 1)),
              delivered.sink());
        }
      });
    }
    server.shutdown();  // races the submitters
    for (std::thread& submitter : submitters) submitter.join();

    // Every submit reached its deliver callback exactly once: admitted jobs
    // were drained by shutdown(), late ones answered kShuttingDown inline.
    EXPECT_EQ(delivered.all().size(),
              static_cast<std::size_t>(kThreads * kJobsPerThread));
  }
}

TEST(ServiceSocket, SecondListenIsRefusedAndLeavesTheFirstAlive) {
  ServerConfig config;
  config.workers = 1;
  ServiceServer server(config, std::make_unique<CountingExecutor>());
  server.listen_unix("svc_double.sock");
  // A second listen must refuse up front — not unlink/rebind the live
  // socket, not leak a fresh fd.
  EXPECT_THROW(server.listen_unix("svc_double_b.sock"), ContractError);
  EXPECT_EQ(server.socket_path(), "svc_double.sock");

  ServiceClient client = ServiceClient::connect_unix("svc_double.sock");
  const JobResponse response =
      client.call(solo_request("w", std::nullopt, Measure::kHardware, 5));
  EXPECT_EQ(response.id, 5u);
  EXPECT_EQ(response.status, JobStatus::kOk);
  server.shutdown();
}

// ---- Socket round-trip: byte-identity with the in-process engine ------------

TEST(ServiceSocket, GoldenRoundTripIsByteIdenticalToInProcess) {
  const LabOptions options = LabOptions{}.threads(2);
  ServerConfig config;
  config.workers = 2;
  ServiceServer server(config, std::make_unique<LabExecutor>(options));
  const std::string socket_path = "svc_golden.sock";
  server.listen_unix(socket_path);
  ServiceClient client = ServiceClient::connect_unix(socket_path);

  // The in-process reference: the same job mapping over a local Lab.
  LabExecutor local(options);

  std::vector<JobRequest> jobs;
  jobs.push_back(solo_request("429.mcf", std::nullopt, Measure::kHardware));
  jobs.push_back(solo_request("429.mcf", kBBAffinity, Measure::kHardware));
  jobs.push_back(solo_request("458.sjeng", kFuncAffinity,
                              Measure::kSimulator));

  JobRequest layout;
  layout.kind = JobKind::kLayout;
  layout.workload = "458.sjeng";
  layout.optimizer = kBBAffinity;
  jobs.push_back(layout);

  JobRequest corun;
  corun.kind = JobKind::kCorun;
  corun.measure = Measure::kHardware;
  corun.parties.push_back({"429.mcf", kBBAffinity, 1.0});
  corun.parties.push_back({"458.sjeng", std::nullopt, 1.0});
  jobs.push_back(corun);

  JobRequest stats;
  stats.kind = JobKind::kTraceStats;
  stats.trace = synthetic_trace();
  jobs.push_back(stats);

  // A failing job travels the same path and fails alone.
  jobs.push_back(solo_request("no.such-benchmark", std::nullopt,
                              Measure::kHardware));

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i + 1;
    // Pin the trace context so the receipt's byte count stays deterministic
    // under CODELAYOUT_TRACE=1 (the client assigns ids only when unset).
    jobs[i].trace_id = i + 1;
    jobs[i].span_id = 1;
    const JobResponse remote = client.call(jobs[i]);
    const JobResponse expected = local.execute(jobs[i]);
    // Byte-identical on the wire, not merely approximately equal. The
    // CostReceipt carries wall-clock timings, which are real per-call data,
    // not determinism violations, so both sides are encoded with it zeroed.
    JobResponse remote_core = remote;
    JobResponse expected_core = expected;
    remote_core.receipt = CostReceipt{};
    expected_core.receipt = CostReceipt{};
    EXPECT_EQ(encode_response_payload(remote_core),
              encode_response_payload(expected_core))
        << jobs[i].to_string();
    EXPECT_EQ(remote_core, expected_core) << jobs[i].to_string();
    // The receipt's simulated-work counts must match the SimResults they
    // ride with (the acceptance contract for per-job cost attribution).
    if (remote.status == JobStatus::kOk) {
      std::uint64_t events = 0;
      std::uint64_t probes = 0;
      std::uint64_t l2 = 0;
      for (const SimResult& r : remote.results) {
        events += r.instructions + r.overhead_instructions;
        probes += r.line_probes;
        l2 += r.l2_probes;
      }
      EXPECT_EQ(remote.receipt.events, events) << jobs[i].to_string();
      EXPECT_EQ(remote.receipt.cache_probes, probes) << jobs[i].to_string();
      EXPECT_EQ(remote.receipt.l2_probes, l2) << jobs[i].to_string();
      EXPECT_EQ(remote.receipt.bytes_decoded,
                encode_request_payload(jobs[i]).size())
          << jobs[i].to_string();
    }
  }

  // Spot-check against the Lab directly: the service path reports exactly
  // what in-process evaluation computes.
  Lab direct(LabOptions{}.threads(2));
  const JobResponse solo_remote = client.call(jobs[1]);
  EXPECT_EQ(solo_remote.results.size(), 1u);
  EXPECT_EQ(solo_remote.results[0],
            direct.solo("429.mcf", kBBAffinity, Measure::kHardware));
  const JobResponse corun_remote = client.call(jobs[4]);
  const CorunResult& corun_direct = direct.corun(
      "429.mcf", kBBAffinity, "458.sjeng", std::nullopt, Measure::kHardware);
  ASSERT_EQ(corun_remote.results.size(), 2u);
  EXPECT_EQ(corun_remote.results[0], corun_direct.self);
  EXPECT_EQ(corun_remote.results[1], corun_direct.peer);

  server.shutdown();
}

TEST(ServiceSocket, NonDefaultHierarchyRoundTripsOverTheWire) {
  const LabOptions options = LabOptions{}.threads(2);
  ServerConfig config;
  config.workers = 2;
  ServiceServer server(config, std::make_unique<LabExecutor>(options));
  const std::string socket_path = "svc_hier.sock";
  server.listen_unix(socket_path);
  ServiceClient client = ServiceClient::connect_unix(socket_path);

  // A small L1 so the workload spills: L2 then absorbs conflict misses and
  // the per-level split is visible (strictly fewer L2 misses than probes).
  HierarchySpec spec;
  spec.l1 = CacheGeometry{4 * 1024, 2, 64};
  spec.l2 = CacheGeometry{256 * 1024, 8, 64};

  JobRequest solo = solo_request("429.mcf", kBBAffinity, Measure::kHardware);
  solo.hierarchy = spec;
  const JobResponse solo_remote = client.call(solo);
  ASSERT_EQ(solo_remote.status, JobStatus::kOk) << solo_remote.error;
  ASSERT_EQ(solo_remote.results.size(), 1u);
  // The L2 actually engaged, and the per-level counters survived the wire.
  EXPECT_GT(solo_remote.results[0].l2_probes, 0u);
  EXPECT_EQ(solo_remote.results[0].l2_probes,
            solo_remote.results[0].demand_misses);
  EXPECT_LT(solo_remote.results[0].l2_misses,
            solo_remote.results[0].l2_probes);

  Lab direct(LabOptions{}.threads(2));
  EXPECT_EQ(solo_remote.results[0],
            direct.solo("429.mcf", kBBAffinity, Measure::kHardware, spec));

  JobRequest corun;
  corun.id = 2;
  corun.kind = JobKind::kCorun;
  corun.measure = Measure::kHardware;
  corun.hierarchy = spec;
  corun.parties.push_back({"429.mcf", kBBAffinity, 1.0});
  corun.parties.push_back({"458.sjeng", std::nullopt, 1.0});
  const JobResponse corun_remote = client.call(corun);
  ASSERT_EQ(corun_remote.status, JobStatus::kOk) << corun_remote.error;
  const CorunResult& corun_direct =
      direct.corun("429.mcf", kBBAffinity, "458.sjeng", std::nullopt,
                   Measure::kHardware, spec);
  ASSERT_EQ(corun_remote.results.size(), 2u);
  EXPECT_EQ(corun_remote.results[0], corun_direct.self);
  EXPECT_EQ(corun_remote.results[1], corun_direct.peer);
  EXPECT_GT(corun_remote.results[0].l2_probes, 0u);

  server.shutdown();
}

// ---- Executor: the general N-party co-run path ------------------------------

TEST(ServiceExecutor, GeneralCorunPathMatchesSimulateCorun) {
  // Three parties never take the Lab::corun pair route: the executor builds
  // a CorunSpec over the Lab's memoized fetch plans. The reference builds
  // the same spec by hand over a fresh Lab.
  LabExecutor executor(LabOptions{}.threads(2));
  JobRequest job;
  job.id = 5;
  job.kind = JobKind::kCorun;
  job.measure = Measure::kHardware;
  job.cpi_speeds = false;
  job.parties.push_back({"429.mcf", kBBAffinity, 1.0});
  job.parties.push_back({"458.sjeng", std::nullopt, 1.25});
  job.parties.push_back({"403.gcc", kFuncAffinity, 0.5});

  Lab lab(LabOptions{}.threads(2));
  const auto simulate = [&](const std::vector<double>& speeds) {
    CorunSpec spec;
    spec.options = hardware_proxy_options();
    for (std::size_t i = 0; i < job.parties.size(); ++i) {
      const CorunPartyRequest& party = job.parties[i];
      spec.parties.push_back(
          {&lab.fetch_plan(party.workload, party.optimizer),
           &lab.workload(party.workload).eval_blocks, speeds[i]});
    }
    return simulate_corun(spec);
  };

  const JobResponse wire_speeds = executor.execute(job);
  ASSERT_EQ(wire_speeds.status, JobStatus::kOk) << wire_speeds.error;
  EXPECT_EQ(wire_speeds.results, simulate({1.0, 1.25, 0.5}));

  // CPI-derived speeds: SMT threads progress inversely to their CPIs,
  // clamped to [0.25, 4].
  const auto cpi = [&](const CorunPartyRequest& party) {
    return lab.perf().base_cpi +
           lab.workload(party.workload).spec.data_stall_cpi;
  };
  std::vector<double> cpi_ratios{1.0};
  for (std::size_t i = 1; i < job.parties.size(); ++i) {
    cpi_ratios.push_back(
        std::clamp(cpi(job.parties[0]) / cpi(job.parties[i]), 0.25, 4.0));
  }
  job.cpi_speeds = true;
  const JobResponse derived = executor.execute(job);
  ASSERT_EQ(derived.status, JobStatus::kOk) << derived.error;
  EXPECT_EQ(derived.results, simulate(cpi_ratios));
  EXPECT_NE(derived.results, wire_speeds.results);

  // Wire speeds are validated before any simulation.
  job.cpi_speeds = false;
  const auto error_of = [&](JobRequest bad) {
    const JobResponse response = executor.execute(bad);
    EXPECT_EQ(response.status, JobStatus::kError);
    return response.error;
  };
  JobRequest bad = job;
  bad.parties[0].speed = 2.0;
  EXPECT_NE(error_of(bad).find("speed must be 1.0"), std::string::npos);
  bad = job;
  bad.parties[1].speed = 0.0;
  EXPECT_NE(error_of(bad).find("finite and positive"), std::string::npos);
  bad = job;
  bad.parties[2].speed = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(error_of(bad).find("finite and positive"), std::string::npos);
  bad = job;
  bad.parties.resize(1);
  EXPECT_NE(error_of(bad).find(">= 2 parties"), std::string::npos);
}

TEST(ServiceSocket, CoScheduleGoldenMatchesInProcessScheduler) {
  const LabOptions options = LabOptions{}.threads(2);
  ServerConfig config;
  config.workers = 2;
  ServiceServer server(config, std::make_unique<LabExecutor>(options));
  const std::string socket_path = "svc_cosched.sock";
  server.listen_unix(socket_path);
  ServiceClient client = ServiceClient::connect_unix(socket_path);

  JobRequest job;
  job.id = 1;
  job.kind = JobKind::kCoSchedule;
  job.measure = Measure::kSimulator;
  job.parties.push_back({"458.sjeng", std::nullopt, 1.0});
  job.parties.push_back({"471.omnetpp", std::nullopt, 1.0});
  job.parties.push_back({"403.gcc", kBBAffinity, 1.0});
  job.slots = 2;
  job.verify_top_k = 1;
  job.trace_id = 1;
  job.span_id = 1;

  const JobResponse remote = client.call(job);
  ASSERT_EQ(remote.status, JobStatus::kOk) << remote.error;

  // Byte-identical to the in-process executor on the wire. The receipt
  // carries per-call timings and the daemon-side predictor attribution, so
  // it is zeroed on both sides before encoding.
  LabExecutor local(options);
  const JobResponse expected = local.execute(job);
  JobResponse remote_wire = remote;
  JobResponse expected_wire = expected;
  remote_wire.receipt = CostReceipt{};
  expected_wire.receipt = CostReceipt{};
  EXPECT_EQ(encode_response_payload(remote_wire),
            encode_response_payload(expected_wire));
  EXPECT_EQ(remote_wire, expected_wire);

  // The daemon attributed the closed-form work: one prediction per pair of
  // the 3-party pool, none served from a profile memo the first time.
  EXPECT_EQ(remote.receipt.predict_calls, 3u);

  // The assignment matches the scheduler run directly on the Lab's memoized
  // profiles — the service adds transport, not policy.
  Lab direct(LabOptions{}.threads(2));
  std::vector<const SoloProfile*> profiles;
  profiles.reserve(job.parties.size());
  for (const CorunPartyRequest& party : job.parties) {
    profiles.push_back(&direct.solo_profile(party.workload, party.optimizer,
                                            job.hierarchy.l1.line_bytes));
  }
  const PairCostMatrix costs =
      compute_pair_costs(profiles, job.hierarchy, direct.perf());
  const ScheduleResult schedule = schedule_corun(costs, job.slots);
  ASSERT_EQ(remote.schedule.pairs.size(), schedule.pairs.size());
  for (std::size_t i = 0; i < schedule.pairs.size(); ++i) {
    EXPECT_EQ(remote.schedule.pairs[i].a, schedule.pairs[i].a);
    EXPECT_EQ(remote.schedule.pairs[i].b, schedule.pairs[i].b);
    EXPECT_EQ(remote.schedule.pairs[i].predicted_misses,
              schedule.pairs[i].predicted_misses);
  }
  EXPECT_EQ(remote.schedule.predicted_total_misses,
            schedule.predicted_total_misses);
  EXPECT_EQ(remote.schedule.refine_passes, schedule.refine_passes);

  // 3 parties on 2 slots force exactly one pair; its bit-exact verification
  // rides results[] both directions and matches Lab::corun exactly.
  ASSERT_EQ(remote.schedule.pairs.size(), 1u);
  ASSERT_EQ(remote.schedule.verified.size(), 1u);
  ASSERT_EQ(remote.results.size(), 2u);
  const SchedulePair& pair = schedule.pairs[remote.schedule.verified[0]];
  const CorunPartyRequest& a = job.parties[pair.a];
  const CorunPartyRequest& b = job.parties[pair.b];
  const CorunResult& ab =
      direct.corun(a.workload, a.optimizer, b.workload, b.optimizer,
                   job.measure, job.hierarchy);
  const CorunResult& ba =
      direct.corun(b.workload, b.optimizer, a.workload, a.optimizer,
                   job.measure, job.hierarchy);
  EXPECT_EQ(remote.results[0], ab.self);
  EXPECT_EQ(remote.results[1], ba.self);

  // Infeasible instances (5 parties cannot fit 2 slots... here 3 parties on
  // 1 slot) answer kError with the scheduler's contract text, not a hangup.
  JobRequest infeasible = job;
  infeasible.id = 2;
  infeasible.slots = 1;
  const JobResponse error = client.call(infeasible);
  EXPECT_EQ(error.status, JobStatus::kError);
  EXPECT_FALSE(error.error.empty());

  // Bad pools are rejected before any profile work.
  JobRequest empty_pool = job;
  empty_pool.id = 3;
  empty_pool.parties.clear();
  EXPECT_EQ(client.call(empty_pool).status, JobStatus::kError);
  JobRequest zero_slots = job;
  zero_slots.id = 4;
  zero_slots.slots = 0;
  EXPECT_EQ(client.call(zero_slots).status, JobStatus::kError);

  server.shutdown();
}

TEST(ServiceSocket, GarbageFramesGetAnErrorResponseAndHangup) {
  ServerConfig config;
  config.workers = 1;
  ServiceServer server(config, std::make_unique<CountingExecutor>());
  const std::string socket_path = "svc_garbage.sock";
  server.listen_unix(socket_path);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  const char garbage[kFrameHeaderBytes] = "NOTAFRAME!!";
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
            static_cast<ssize_t>(sizeof(garbage)));

  char header_bytes[kFrameHeaderBytes];
  std::size_t got = 0;
  while (got < sizeof(header_bytes)) {
    const ssize_t r =
        ::recv(fd, header_bytes + got, sizeof(header_bytes) - got, 0);
    ASSERT_GT(r, 0);
    got += static_cast<std::size_t>(r);
  }
  const FrameHeader header = decode_frame_header(header_bytes);
  EXPECT_EQ(header.type, FrameType::kResponse);
  std::string payload(header.payload_len, '\0');
  got = 0;
  while (got < payload.size()) {
    const ssize_t r = ::recv(fd, payload.data() + got, payload.size() - got, 0);
    ASSERT_GT(r, 0);
    got += static_cast<std::size_t>(r);
  }
  const JobResponse response = decode_response_payload(payload);
  EXPECT_EQ(response.status, JobStatus::kError);
  EXPECT_FALSE(response.error.empty());

  // The server hangs up after a protocol error.
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  server.shutdown();
}

TEST(ServiceSocket, OversizedCacheShapesGetAnErrorNamingTheLimit) {
  // A job's hierarchy is untrusted: a shape past CacheGeometry's limits, as
  // the L1 or as the L2, is refused when the request decodes, with a kError
  // naming the limit, and no job reaches the executor.
  auto executor = std::make_unique<CountingExecutor>();
  CountingExecutor& counter = *executor;
  ServerConfig config;
  config.workers = 1;
  ServiceServer server(config, std::move(executor));
  const std::string socket_path = "svc_oversized.sock";
  server.listen_unix(socket_path);

  struct Shape {
    CacheGeometry geom;
    const char* limit;
  };
  const Shape shapes[] = {
      // 1 TiB of 64 B lines: 2^32 sets of 4 ways.
      {{std::uint64_t{1} << 40, 4, 64}, "limit of 1048576 lines"},
      // One set of 2^20 ways: 2^20 tags to scan per probe.
      {{std::uint64_t{64} << 20, 1u << 20, 64}, "limit of 1024 ways"},
      {{std::uint64_t{8} << 20, 4, 2u << 20}, "limit of 1048576 bytes"},
  };
  for (const Shape& shape : shapes) {
    for (const bool as_l2 : {false, true}) {
      SCOPED_TRACE(shape.geom.to_string() + (as_l2 ? " as L2" : " as L1"));
      JobRequest request =
          solo_request("429.mcf", kBBAffinity, Measure::kHardware);
      if (as_l2) {
        request.hierarchy.l2 = shape.geom;
      } else {
        request.hierarchy.l1 = shape.geom;
      }
      // The server hangs up after a request it cannot decode, so each job
      // gets its own connection.
      ServiceClient client = ServiceClient::connect_unix(socket_path);
      const JobResponse response = client.call(request);
      EXPECT_EQ(response.status, JobStatus::kError);
      EXPECT_NE(response.error.find(shape.limit), std::string::npos)
          << response.error;
    }
  }
  EXPECT_EQ(counter.executed.load(), 0u);
  server.shutdown();
}

// ---- Observability: tail hardening, introspection, trace context ------------

TEST(ServiceProtocol, TraceContextDoesNotPerturbTheCanonicalKey) {
  JobRequest plain = solo_request("429.mcf", kBBAffinity, Measure::kHardware);
  JobRequest traced = plain;
  traced.trace_id = 0xdeadbeefcafef00dull;
  traced.span_id = 17;
  // Tracing is observability, never identity: a traced request names the
  // same work as an untraced one.
  EXPECT_EQ(plain.canonical_key(), traced.canonical_key());
}

TEST(ServiceProtocol, IntrospectRequestsRoundTripEveryKind) {
  for (const IntrospectKind kind :
       {IntrospectKind::kStats, IntrospectKind::kHealth,
        IntrospectKind::kMetricsJson, IntrospectKind::kPrometheus,
        IntrospectKind::kRecentJobs, IntrospectKind::kTraceExport}) {
    JobRequest request;
    request.id = 77;
    request.kind = JobKind::kIntrospect;
    request.introspect = kind;
    request.trace_id = 5;
    request.span_id = 2;
    const JobRequest decoded =
        decode_request_payload(encode_request_payload(request));
    EXPECT_EQ(decoded, request) << introspect_kind_name(kind);
  }
}

TEST(ServiceProtocol, RejectsHostileV3Tails) {
  JobRequest request = solo_request("429.mcf", kBBAffinity,
                                    Measure::kHardware, 9);
  request.trace_id = 1234567;
  request.span_id = 3;
  const std::string payload = encode_request_payload(request);

  // Truncating anywhere inside the trace-context tail (trace varint, span
  // varint, introspect byte) must throw, never decode half a context.
  for (std::size_t cut = 1; cut <= 5 && cut < payload.size(); ++cut) {
    EXPECT_THROW(static_cast<void>(decode_request_payload(
                     std::string_view(payload).substr(0, payload.size() - cut))),
                 ContractError)
        << "cut " << cut;
  }

  // Introspect byte out of range (it sits before the two co-schedule
  // bytes).
  std::string bad_introspect = payload;
  bad_introspect[bad_introspect.size() - 3] = '\x66';
  EXPECT_THROW(static_cast<void>(decode_request_payload(bad_introspect)),
               ContractError);

  // Response side: truncated receipt and a cached flag that is not 0/1.
  JobResponse response;
  response.id = 9;
  response.receipt.events = 1000;
  response.receipt.wall_nanos = 500;
  const std::string rpayload = encode_response_payload(response);
  for (std::size_t cut = 1; cut <= 4; ++cut) {
    EXPECT_THROW(
        static_cast<void>(decode_response_payload(
            std::string_view(rpayload).substr(0, rpayload.size() - cut))),
        ContractError)
        << "cut " << cut;
  }
  JobResponse flagged;
  flagged.receipt.cached = true;
  std::string bad_cached = encode_response_payload(flagged);
  // The cached byte is followed by the (empty varint-length) introspect
  // string, three retired slots (two one-byte zero varints plus an 8-byte
  // double), and the empty schedule tail (two zero counts, an 8-byte
  // double, refine_passes, the verified count, and two predictor varints) —
  // 25 trailing bytes.
  bad_cached[bad_cached.size() - 26] = '\x02';
  EXPECT_THROW(static_cast<void>(decode_response_payload(bad_cached)),
               ContractError);
}

/// Connects a raw AF_UNIX stream to `path` (test-side plumbing for sending
/// hand-made frames on purpose).
int raw_connect(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

/// Sends one pre-encoded frame and reads back one whole response frame.
/// Returns (header, payload).
std::pair<FrameHeader, std::string> raw_roundtrip(int fd,
                                                  const std::string& frame) {
  EXPECT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  char header_bytes[kFrameHeaderBytes];
  std::size_t got = 0;
  while (got < sizeof(header_bytes)) {
    const ssize_t r =
        ::recv(fd, header_bytes + got, sizeof(header_bytes) - got, 0);
    EXPECT_GT(r, 0);
    if (r <= 0) return {};
    got += static_cast<std::size_t>(r);
  }
  const FrameHeader header = decode_frame_header(header_bytes);
  std::string payload(header.payload_len, '\0');
  got = 0;
  while (got < payload.size()) {
    const ssize_t r = ::recv(fd, payload.data() + got, payload.size() - got, 0);
    EXPECT_GT(r, 0);
    if (r <= 0) return {};
    got += static_cast<std::size_t>(r);
  }
  return {header, std::move(payload)};
}

TEST(ServiceSocket, OtherWireVersionsGetAnErrorAndAHangup) {
  ServerConfig config;
  config.workers = 1;
  ServiceServer server(config, std::make_unique<CountingExecutor>());
  const std::string socket_path = "svc_versions.sock";
  server.listen_unix(socket_path);

  const std::string frame = encode_request_frame(
      solo_request("429.mcf", std::nullopt, Measure::kHardware, 21));
  for (const std::uint16_t version : {1, 4, 6}) {
    std::string stamped = frame;
    stamped[4] = static_cast<char>(version & 0xff);
    stamped[5] = static_cast<char>(version >> 8);
    const int fd = raw_connect(socket_path);
    // Bounded reads: a server that keeps the connection open fails the test
    // instead of hanging it.
    const timeval timeout{10, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof(timeout)),
              0);
    const auto [header, payload] = raw_roundtrip(fd, stamped);
    EXPECT_EQ(header.type, FrameType::kResponse);
    const JobResponse response = decode_response_payload(payload);
    EXPECT_EQ(response.status, JobStatus::kError);
    EXPECT_NE(response.error.find("unsupported wire version " +
                                  std::to_string(version) +
                                  " (this build speaks " +
                                  std::to_string(kWireVersion) + ")"),
              std::string::npos)
        << response.error;
    // Then a hangup. The server closes without reading the payload, so the
    // next recv sees the reset (-1, ECONNRESET) or an orderly EOF (0); a
    // read timeout means the connection stayed open.
    char byte;
    const ssize_t r = ::recv(fd, &byte, 1, 0);
    EXPECT_TRUE(r == 0 || (r < 0 && errno == ECONNRESET))
        << "version " << version << ": recv " << r << ", "
        << std::strerror(errno);
    ::close(fd);
  }

  // A current client is still served, and its receipt carries real
  // timings.
  ServiceClient client = ServiceClient::connect_unix(socket_path);
  const JobResponse response =
      client.call(solo_request("w", std::nullopt, Measure::kHardware, 22));
  EXPECT_EQ(response.status, JobStatus::kOk);
  EXPECT_GT(response.receipt.wall_nanos, 0u);
  server.shutdown();
}

TEST(ServiceSocket, TruncatedFrameDoesNotWedgeTheServer) {
  ServerConfig config;
  config.workers = 1;
  ServiceServer server(config, std::make_unique<CountingExecutor>());
  const std::string socket_path = "svc_trunc.sock";
  server.listen_unix(socket_path);

  // A header promising more payload than ever arrives: the connection dies,
  // the server does not.
  const std::string frame = encode_request_frame(
      solo_request("429.mcf", std::nullopt, Measure::kHardware, 2));
  const int fd = raw_connect(socket_path);
  ASSERT_EQ(::send(fd, frame.data(), frame.size() - 3, 0),
            static_cast<ssize_t>(frame.size() - 3));
  ::shutdown(fd, SHUT_WR);
  char byte;
  while (::recv(fd, &byte, 1, 0) > 0) {
  }
  ::close(fd);

  // Fresh clients still get service afterwards.
  ServiceClient client = ServiceClient::connect_unix(socket_path);
  const JobResponse response =
      client.call(solo_request("w", std::nullopt, Measure::kHardware, 3));
  EXPECT_EQ(response.status, JobStatus::kOk);
  server.shutdown();
}

TEST(ServiceServer, IntrospectionServedWhileWorkersSaturated) {
  auto owned = std::make_unique<GatedExecutor>();
  GatedExecutor* gate = owned.get();
  ServiceServer server(small_config(1, 8), std::move(owned));

  // Saturate: one job in flight (blocked in the gate), one queued.
  Deliveries deliveries;
  server.submit(solo_request("a", std::nullopt, Measure::kHardware, 1),
                deliveries.sink());
  server.submit(solo_request("b", std::nullopt, Measure::kHardware, 2),
                deliveries.sink());
  gate->wait_started(1);

  // Introspection bypasses the queue entirely: it answers inline while the
  // only worker is wedged.
  JobRequest stats_request;
  stats_request.id = 90;
  stats_request.kind = JobKind::kIntrospect;
  stats_request.introspect = IntrospectKind::kStats;
  const JobResponse stats = server.call(stats_request);
  ASSERT_EQ(stats.status, JobStatus::kOk);
  std::string error;
  EXPECT_TRUE(testing::json_is_valid(stats.introspect, &error))
      << error << "\n"
      << stats.introspect;
  EXPECT_NE(stats.introspect.find("\"inflight\":1"), std::string::npos)
      << stats.introspect;
  EXPECT_NE(stats.introspect.find("\"queued\":1"), std::string::npos);
  EXPECT_NE(stats.introspect.find("\"status\":\"ok\""), std::string::npos);

  JobRequest health_request;
  health_request.kind = JobKind::kIntrospect;
  health_request.introspect = IntrospectKind::kHealth;
  const JobResponse health = server.call(health_request);
  ASSERT_EQ(health.status, JobStatus::kOk);
  EXPECT_NE(health.introspect.find("\"uptime_ns\""), std::string::npos);

  // Introspect jobs count as introspected, never as completed work, and
  // never enter the worker queues.
  EXPECT_EQ(server.stats().introspected, 2u);
  EXPECT_EQ(server.stats().completed, 0u);

  gate->open();
  server.shutdown();
  EXPECT_EQ(deliveries.all().size(), 2u);
}

TEST(ServiceServer, RecentJobsRingKeepsNewestCapped) {
  ServerConfig config;
  config.workers = 1;
  ServiceServer server(config, std::make_unique<CountingExecutor>());

  // Names are built by appending rather than `"w" + ...` to dodge a GCC 12
  // -O3 -Wrestrict false positive (GCC PR105651) in std::operator+.
  const auto name = [](std::size_t i) {
    std::string out = "w";
    out += std::to_string(i);
    return out;
  };
  const std::size_t total = ServiceServer::kRecentJobsCapacity + 8;
  for (std::size_t i = 1; i <= total; ++i) {
    const JobResponse response = server.call(
        solo_request(name(i), std::nullopt, Measure::kHardware, i));
    ASSERT_EQ(response.status, JobStatus::kOk);
  }
  // One repeat: it runs again and is recorded in the ring.
  const JobResponse repeat = server.call(
      solo_request(name(total), std::nullopt, Measure::kHardware, 999));
  ASSERT_EQ(repeat.status, JobStatus::kOk);

  const std::vector<ServiceServer::RecentJob> recent = server.recent_jobs();
  ASSERT_EQ(recent.size(), ServiceServer::kRecentJobsCapacity);
  EXPECT_EQ(recent.front().id, 999u);  // newest first
  EXPECT_EQ(recent[1].id, total);

  // The same ring serves the kRecentJobs introspection document.
  JobRequest request;
  request.kind = JobKind::kIntrospect;
  request.introspect = IntrospectKind::kRecentJobs;
  const JobResponse doc = server.call(request);
  ASSERT_EQ(doc.status, JobStatus::kOk);
  std::string error;
  EXPECT_TRUE(testing::json_is_valid(doc.introspect, &error)) << error;
  EXPECT_NE(doc.introspect.find("\"count\":32"), std::string::npos)
      << doc.introspect;
  EXPECT_NE(doc.introspect.find("\"id\":999"), std::string::npos);
  // The retired dispatch fields are gone from the ring entries.
  EXPECT_EQ(doc.introspect.find("dispatch"), std::string::npos)
      << doc.introspect;
  // Predictor attribution rides the same ring entries.
  EXPECT_NE(doc.introspect.find("\"predict_calls\":"), std::string::npos);
  EXPECT_NE(doc.introspect.find("\"profile_memo_hits\":"), std::string::npos);
  server.shutdown();
}

TEST(ServiceSocket, ClientIntrospectHelperFetchesLintCleanDocs) {
  ServerConfig config;
  config.workers = 1;
  ServiceServer server(config, std::make_unique<CountingExecutor>());
  const std::string socket_path = "svc_introspect.sock";
  server.listen_unix(socket_path);
  ServiceClient client = ServiceClient::connect_unix(socket_path);

  const std::string stats = client.introspect(IntrospectKind::kStats);
  std::string error;
  EXPECT_TRUE(testing::json_is_valid(stats, &error)) << error << "\n" << stats;
  EXPECT_NE(stats.find("\"workers\":1"), std::string::npos);

  const std::string prom = client.introspect(IntrospectKind::kPrometheus);
  EXPECT_TRUE(testing::prom_is_valid(prom, &error)) << error << "\n" << prom;

  const std::string trace = client.introspect(IntrospectKind::kTraceExport);
  EXPECT_TRUE(testing::json_is_valid(trace, &error)) << error;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  server.shutdown();
}

TEST(ServiceSocket, TracedCallTagsClientAndDaemonSpansWithOneId) {
  TraceRecorder::instance().clear();
  TraceRecorder::instance().enable();
  ServerConfig config;
  config.workers = 1;
  ServiceServer server(config, std::make_unique<CountingExecutor>());
  const std::string socket_path = "svc_traced.sock";
  server.listen_unix(socket_path);
  {
    ServiceClient client = ServiceClient::connect_unix(socket_path);
    const JobResponse response = client.call(
        solo_request("429.mcf", std::nullopt, Measure::kHardware, 4));
    ASSERT_EQ(response.status, JobStatus::kOk);
  }
  server.shutdown();
  TraceRecorder::instance().disable();

  // The daemon recorded the job with the client-assigned (nonzero) trace id.
  const std::vector<ServiceServer::RecentJob> recent = server.recent_jobs();
  ASSERT_FALSE(recent.empty());
  const std::uint64_t trace_id = recent.front().trace_id;
  EXPECT_NE(trace_id, 0u);

  // In-process both sides share one recorder: the export must show the
  // client-side service_call span AND the daemon-side service_job span
  // tagged with the same trace id.
  const std::string doc = TraceRecorder::instance().export_chrome_trace();
  TraceRecorder::instance().clear();
  std::string error;
  ASSERT_TRUE(testing::json_is_valid(doc, &error)) << error;
  const std::string tag = "\"trace_id\":\"" + std::to_string(trace_id) + "\"";
  std::size_t tagged = 0;
  for (std::size_t pos = doc.find(tag); pos != std::string::npos;
       pos = doc.find(tag, pos + 1)) {
    ++tagged;
  }
  EXPECT_GE(tagged, 2u) << doc;
  EXPECT_NE(doc.find("\"name\":\"service_call\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"service_job\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"queue-wait\""), std::string::npos);
}

TEST(ServiceSocket, ConcurrentClientsAllGetTheirOwnAnswers) {
  ServerConfig config;
  config.workers = 2;
  ServiceServer server(config, std::make_unique<CountingExecutor>());
  const std::string socket_path = "svc_many.sock";
  server.listen_unix(socket_path);

  constexpr unsigned kClients = 4;
  constexpr unsigned kJobs = 16;
  std::atomic<unsigned> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServiceClient client = ServiceClient::connect_unix(socket_path);
      for (unsigned j = 0; j < kJobs; ++j) {
        // Distinct workloads per job: the response payload must echo this
        // request's workload length, not some other client's.
        const std::string workload(1 + (c * kJobs + j) % 9, 'w');
        JobRequest request =
            solo_request(workload, std::nullopt, Measure::kHardware,
                         (static_cast<std::uint64_t>(c) << 32) | j);
        const JobResponse response = client.call(request);
        if (response.status != JobStatus::kOk ||
            response.trace_stats.events != workload.size()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  server.shutdown();
  EXPECT_EQ(server.stats().completed,
            static_cast<std::uint64_t>(kClients) * kJobs);
}

}  // namespace
}  // namespace codelayout::service
