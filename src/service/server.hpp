// The layout-optimization daemon: a job-oriented service over the Lab.
//
// Layering:
//
//   socket/pipe frames  ──>  ServiceServer  ──>  JobExecutor  ──>  Lab
//        (protocol)          admission,          job -> EvalRequest
//                            bounded priority    mapping; results
//                            queue, workers,     identical to the
//                            graceful shutdown   in-process engine
//
// The server owns a bounded three-class priority queue (interactive >
// normal > batch, FIFO within a class). Admission control is synchronous
// and takes the server lock once: a draining server answers kShuttingDown,
// a full queue kRejected, both delivered inline without touching a worker;
// anything else is enqueued. Every admitted job runs on one of `workers`
// dedicated threads, repeats included: the Lab's per-cell memo answers a
// repeated job without recomputing, and its receipt records that run.
// Concurrency *within* one job comes from the Lab's own pool, so a handful
// of service workers keeps the queue moving while big jobs parallelize
// internally.
// shutdown() (or the destructor) stops admitting, drains every queued and
// in-flight job to its deliver callback, closes the socket, and joins all
// threads — no job is dropped silently, no thread leaks (pinned under TSan
// by the service tests).
//
// The JobExecutor seam is virtual so tests can inject a gated executor and
// deterministically fill the queue, assert rejection, and race shutdown
// against in-flight jobs; production uses LabExecutor.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/lab.hpp"
#include "service/protocol.hpp"

namespace codelayout::service {

/// Executes one decoded job to a response. Implementations must be
/// thread-safe: the server calls execute() from several workers at once.
class JobExecutor {
 public:
  virtual ~JobExecutor() = default;
  virtual JobResponse execute(const JobRequest& request) = 0;
};

/// Production executor: maps jobs onto Lab cells via evaluate_all_checked,
/// so one bad job yields one kError response instead of poisoning the batch.
/// Responses carry only deterministic simulation/layout payloads (no
/// timings), making the service path byte-identical to in-process results.
class LabExecutor : public JobExecutor {
 public:
  explicit LabExecutor(LabOptions options = {});

  JobResponse execute(const JobRequest& request) override;

  /// The underlying engine (metrics snapshots, warm-up).
  [[nodiscard]] Lab& lab() { return lab_; }

 private:
  JobResponse run(const JobRequest& request);

  Lab lab_;
};

struct ServerConfig {
  /// Dedicated job threads. Each job runs on one worker; the Lab fans a
  /// job's cells out over its own pool, so a few workers suffice.
  unsigned workers = 2;
  /// Bounded queue depth across all priority classes; admission control
  /// rejects the (depth+1)-th queued job.
  std::size_t queue_depth = 64;
};

class ServiceServer {
 public:
  /// Takes ownership of the executor; workers start immediately.
  ServiceServer(ServerConfig config, std::unique_ptr<JobExecutor> executor);
  /// shutdown() if the caller has not already.
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Submits one job. `deliver` is invoked exactly once with the response:
  /// inline for admission failures (kRejected / kShuttingDown) and kIntrospect
  /// jobs (served on the submitting thread, never queued — snapshots work
  /// even while every worker is saturated or the server is draining), from a
  /// worker thread otherwise. `deliver` must be
  /// callable from any thread and must not re-enter the server.
  /// `request_bytes` is the wire payload size (stamped into the response's
  /// CostReceipt; 0 for in-process callers).
  void submit(JobRequest request, std::function<void(JobResponse)> deliver,
              std::uint64_t request_bytes = 0);

  /// Blocking submit-and-wait.
  JobResponse call(const JobRequest& request);

  /// Binds a unix-domain socket at `path` (unlinking any stale one) and
  /// serves frames until shutdown: one reader thread per connection,
  /// responses written under a per-connection lock as jobs finish (so an
  /// interactive job overtakes a batch job on the same connection).
  void listen_unix(const std::string& path);
  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }

  /// Graceful: stop admitting (new jobs answer kShuttingDown), drain every
  /// queued and in-flight job, close the socket, join all threads.
  /// Idempotent.
  void shutdown();

  struct Stats {
    std::uint64_t submitted = 0;      ///< all submit() calls
    std::uint64_t completed = 0;      ///< executed to a response
    std::uint64_t rejected = 0;       ///< bounded-queue admission failures
    std::uint64_t shutdown_rejected = 0;  ///< arrived while draining
    std::uint64_t introspected = 0;   ///< kIntrospect jobs served inline
    std::size_t queue_peak = 0;       ///< high-water queued depth
  };
  [[nodiscard]] Stats stats() const;

  /// One completed job in the recent-jobs ring.
  struct RecentJob {
    std::uint64_t id = 0;
    JobKind kind = JobKind::kSolo;
    JobStatus status = JobStatus::kOk;
    std::uint64_t trace_id = 0;
    std::uint64_t queue_wait_nanos = 0;
    std::uint64_t wall_nanos = 0;
    /// Closed-form predictor attribution (perfmodel/corun_predictor.hpp):
    /// predict_corun evaluations the job ran and solo-profile memo lookups
    /// it answered without a kernel pass.
    std::uint64_t predict_calls = 0;
    std::uint64_t profile_memo_hits = 0;
  };
  /// Newest first; bounded at kRecentJobsCapacity.
  static constexpr std::size_t kRecentJobsCapacity = 32;
  [[nodiscard]] std::vector<RecentJob> recent_jobs() const;

 private:
  struct QueuedJob {
    JobRequest request;
    std::function<void(JobResponse)> deliver;
    std::uint64_t enqueue_nanos = 0;
    std::uint64_t request_bytes = 0;
  };

  void worker_loop();
  void finish_job(QueuedJob job);
  void accept_loop();
  void connection_loop(int fd);
  void close_socket();
  [[nodiscard]] JobResponse introspect_response(const JobRequest& request);
  void push_recent(const RecentJob& job);

  ServerConfig config_;
  std::unique_ptr<JobExecutor> executor_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  /// queues_[p] holds JobPriority p; pop scans highest class first.
  std::deque<QueuedJob> queues_[3];
  std::size_t queued_ = 0;
  std::size_t inflight_ = 0;
  bool draining_ = false;
  Stats stats_;
  const std::uint64_t start_nanos_;

  /// Recent-jobs flight ring, guarded by its own mutex so introspection
  /// never contends with admission control on mu_.
  mutable std::mutex recent_mu_;
  std::deque<RecentJob> recent_;

  std::vector<std::thread> workers_;

  // Socket state (guarded by socket_mu_ where threads race shutdown).
  std::mutex socket_mu_;
  std::string socket_path_;
  int listen_fd_ = -1;
  std::thread acceptor_;
  std::vector<int> connection_fds_;
  std::vector<std::thread> connection_threads_;
};

}  // namespace codelayout::service
