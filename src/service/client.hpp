// Client side of the service protocol: a blocking one-job-at-a-time
// connection, plus the multi-client load generator behind bench_service and
// the CI smoke job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "support/registry.hpp"

namespace codelayout::service {

/// One connection to the daemon. call() writes a request frame and blocks
/// for the matching response; use one client per thread (the connection
/// carries one job at a time).
class ServiceClient {
 public:
  /// Throws ContractError when the socket cannot be reached.
  static ServiceClient connect_unix(const std::string& path);
  /// Adopts an already-connected stream fd (tests use socketpair()).
  explicit ServiceClient(int fd) : fd_(fd) {}
  ~ServiceClient();

  ServiceClient(ServiceClient&& other) noexcept;
  ServiceClient& operator=(ServiceClient&& other) noexcept;
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Round-trips one job. Throws ContractError on a broken connection or a
  /// malformed/mismatched response frame.
  ///
  /// Trace propagation: when the local flight recorder is enabled and the
  /// request carries no trace context, call() assigns a fresh trace id,
  /// records a client-side "service_call" span tagged with it, and sends the
  /// id to the daemon — so a merged client+daemon Perfetto export shows the
  /// whole job joined on one trace id.
  [[nodiscard]] JobResponse call(const JobRequest& request);

  /// Convenience kIntrospect round-trip (interactive priority, served inline
  /// by the daemon). Returns the introspection document; throws
  /// ContractError when the daemon answers with an error.
  [[nodiscard]] std::string introspect(IntrospectKind kind);

 private:
  [[nodiscard]] JobResponse roundtrip(const JobRequest& request);

  int fd_ = -1;
};

// ---- Load generator ---------------------------------------------------------

struct LoadGenOptions {
  std::string socket_path;
  /// Concurrent clients, each on its own connection and thread.
  unsigned clients = 4;
  unsigned jobs_per_client = 32;
  /// The job mix, cycled round-robin per client. Ids are stamped by the
  /// generator (client index in the high half, sequence in the low).
  std::vector<JobRequest> mix;
};

struct LoadGenReport {
  std::uint64_t jobs = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t rejected = 0;       ///< kRejected + kShuttingDown
  double wall_seconds = 0.0;
  double jobs_per_sec = 0.0;
  /// Client-observed per-job round-trip latency (includes queueing).
  LatencyHistogram::Summary latency;
  /// CostReceipts summed over every kOk response: where the daemon's time
  /// and simulated work went.
  struct Cost {
    std::uint64_t events = 0;
    std::uint64_t cache_probes = 0;
    std::uint64_t l2_probes = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t bytes_decoded = 0;
    std::uint64_t queue_wait_nanos = 0;
    std::uint64_t wall_nanos = 0;
    /// Closed-form predictor work summed over every kOk response.
    std::uint64_t predict_calls = 0;
    std::uint64_t profile_memo_hits = 0;
  } cost;
};

/// Drives the daemon with `clients` concurrent connections and returns the
/// aggregate throughput/latency report. Latencies are also recorded into the
/// global registry histogram "service.client.job_ns" when metrics are
/// enabled. Throws ContractError when the mix is empty or a connection
/// cannot be established.
LoadGenReport run_load_generator(const LoadGenOptions& options);

}  // namespace codelayout::service
