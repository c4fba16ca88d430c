#include "service/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "support/check.hpp"
#include "support/trace_recorder.hpp"

namespace codelayout::service {
namespace {

std::uint64_t now_nanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process-unique nonzero trace ids: a SplitMix64 stream seeded from the
/// wall clock so two concurrently-started clients do not collide.
std::uint64_t next_trace_id() {
  static const std::uint64_t seed = static_cast<std::uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t x =
      seed + 0x9e3779b97f4a7c15ull * (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

void read_exact(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    CL_CHECK_MSG(r != 0, "service connection closed mid-response");
    if (r < 0) {
      CL_CHECK_MSG(errno == EINTR,
                   "service read failed: " << std::strerror(errno));
      continue;
    }
    got += static_cast<std::size_t>(r);
  }
}

void write_all(int fd, const char* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      CL_CHECK_MSG(errno == EINTR,
                   "service write failed: " << std::strerror(errno));
      continue;
    }
    sent += static_cast<std::size_t>(r);
  }
}

}  // namespace

ServiceClient ServiceClient::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  CL_CHECK_MSG(path.size() < sizeof(addr.sun_path),
               "unix socket path too long: " << path.size() << " bytes");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  CL_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    CL_CHECK_MSG(false,
                 "connect(" << path << ") failed: " << std::strerror(err));
  }
  return ServiceClient(fd);
}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) ::close(fd_);
}

ServiceClient::ServiceClient(ServiceClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

ServiceClient& ServiceClient::operator=(ServiceClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

JobResponse ServiceClient::call(const JobRequest& request) {
  if (TraceRecorder::instance().enabled() && request.trace_id == 0) {
    // Assign a trace context and record the round trip under it: the daemon
    // tags its spans with the same id, so a merged export joins on it.
    JobRequest traced = request;
    traced.trace_id = next_trace_id();
    traced.span_id = 1;
    ScopedJobContext scope(
        JobContext{traced.trace_id, traced.span_id, nullptr});
    CODELAYOUT_SPAN("service_call", "service",
                    {"kind", job_kind_name(traced.kind)}, {"id", traced.id});
    return roundtrip(traced);
  }
  return roundtrip(request);
}

std::string ServiceClient::introspect(IntrospectKind kind) {
  JobRequest request;
  request.kind = JobKind::kIntrospect;
  request.introspect = kind;
  request.priority = JobPriority::kInteractive;
  JobResponse response = call(request);
  CL_CHECK_MSG(response.status == JobStatus::kOk,
               "introspect(" << introspect_kind_name(kind)
                             << ") failed: " << response.error);
  return std::move(response.introspect);
}

JobResponse ServiceClient::roundtrip(const JobRequest& request) {
  CL_CHECK_MSG(fd_ >= 0, "service client is not connected");
  const std::string frame = encode_request_frame(request);
  write_all(fd_, frame.data(), frame.size());

  char header_bytes[kFrameHeaderBytes];
  read_exact(fd_, header_bytes, kFrameHeaderBytes);
  const FrameHeader header = decode_frame_header(header_bytes);
  CL_CHECK_MSG(header.type == FrameType::kResponse,
               "service client: expected a response frame");
  std::string payload(header.payload_len, '\0');
  if (header.payload_len > 0) read_exact(fd_, payload.data(), payload.size());
  JobResponse response = decode_response_payload(payload);
  CL_CHECK_MSG(response.id == request.id || response.id == 0,
               "service client: response id " << response.id
                                              << " does not match request id "
                                              << request.id);
  return response;
}

LoadGenReport run_load_generator(const LoadGenOptions& options) {
  CL_CHECK_MSG(!options.mix.empty(), "load generator needs a non-empty mix");
  CL_CHECK_MSG(options.clients >= 1, "load generator needs >= 1 client");

  // Connect every client before starting the clock so the report measures
  // job throughput, not connection setup.
  std::vector<ServiceClient> clients;
  clients.reserve(options.clients);
  for (unsigned i = 0; i < options.clients; ++i) {
    clients.push_back(ServiceClient::connect_unix(options.socket_path));
  }

  LatencyHistogram latency;  // atomics: shared across client threads
  std::atomic<std::uint64_t> ok{0}, errors{0}, rejected{0};
  MetricsRegistry& registry = MetricsRegistry::global();
  // Per-client receipt partials, merged after the join (no contention).
  std::vector<LoadGenReport::Cost> costs(options.clients);

  const std::uint64_t start = now_nanos();
  std::vector<std::thread> threads;
  threads.reserve(options.clients);
  for (unsigned c = 0; c < options.clients; ++c) {
    threads.emplace_back([&, c] {
      ServiceClient& client = clients[c];
      LoadGenReport::Cost& cost = costs[c];
      for (unsigned j = 0; j < options.jobs_per_client; ++j) {
        JobRequest request = options.mix[j % options.mix.size()];
        request.id = (static_cast<std::uint64_t>(c + 1) << 32) | (j + 1);
        const std::uint64_t t0 = now_nanos();
        const JobResponse response = client.call(request);
        const std::uint64_t nanos = now_nanos() - t0;
        latency.record(nanos);
        if (registry.enabled()) {
          registry.histogram("service.client.job_ns").record(nanos);
        }
        switch (response.status) {
          case JobStatus::kOk: ok.fetch_add(1); break;
          case JobStatus::kError: errors.fetch_add(1); break;
          case JobStatus::kRejected:
          case JobStatus::kShuttingDown: rejected.fetch_add(1); break;
        }
        if (response.status == JobStatus::kOk) {
          const CostReceipt& receipt = response.receipt;
          cost.events += receipt.events;
          cost.cache_probes += receipt.cache_probes;
          cost.l2_probes += receipt.l2_probes;
          cost.memo_hits += receipt.memo_hits;
          cost.memo_misses += receipt.memo_misses;
          cost.bytes_decoded += receipt.bytes_decoded;
          cost.queue_wait_nanos += receipt.queue_wait_nanos;
          cost.wall_nanos += receipt.wall_nanos;
          cost.predict_calls += receipt.predict_calls;
          cost.profile_memo_hits += receipt.profile_memo_hits;
          if (receipt.cached) ++cost.cached_jobs;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double wall =
      static_cast<double>(now_nanos() - start) / 1e9;

  LoadGenReport report;
  report.jobs = static_cast<std::uint64_t>(options.clients) *
                options.jobs_per_client;
  report.ok = ok.load();
  report.errors = errors.load();
  report.rejected = rejected.load();
  report.wall_seconds = wall;
  report.jobs_per_sec =
      wall > 0.0 ? static_cast<double>(report.jobs) / wall : 0.0;
  report.latency = latency.summary();
  for (const LoadGenReport::Cost& cost : costs) {
    report.cost.events += cost.events;
    report.cost.cache_probes += cost.cache_probes;
    report.cost.l2_probes += cost.l2_probes;
    report.cost.memo_hits += cost.memo_hits;
    report.cost.memo_misses += cost.memo_misses;
    report.cost.bytes_decoded += cost.bytes_decoded;
    report.cost.queue_wait_nanos += cost.queue_wait_nanos;
    report.cost.wall_nanos += cost.wall_nanos;
    report.cost.cached_jobs += cost.cached_jobs;
    report.cost.predict_calls += cost.predict_calls;
    report.cost.profile_memo_hits += cost.profile_memo_hits;
  }
  return report;
}

}  // namespace codelayout::service
