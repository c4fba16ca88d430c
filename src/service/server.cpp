#include "service/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <future>
#include <utility>

#include "perfmodel/scheduler.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/registry.hpp"
#include "support/trace_recorder.hpp"

namespace codelayout::service {
namespace {

std::uint64_t now_nanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// FNV-1a over the little-endian bytes of each 64-bit word — the same
// construction the golden-equivalence suite uses, so layout/trace checksums
// are stable, deterministic fingerprints rather than full payloads.
constexpr std::uint64_t kFnvSeed = 14695981039346656037ull;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

JobResponse error_response(const JobRequest& request, std::string message) {
  JobResponse response;
  response.id = request.id;
  response.status = JobStatus::kError;
  response.error = std::move(message);
  return response;
}

void bump(const char* name) {
  MetricsRegistry& registry = MetricsRegistry::global();
  if (registry.enabled()) registry.counter(name).add(1);
}

// ---- Socket IO helpers ------------------------------------------------------

bool read_exact(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) return false;  // orderly EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_all(int fd, const char* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

// ---- LabExecutor ------------------------------------------------------------

LabExecutor::LabExecutor(LabOptions options) : lab_(std::move(options)) {}

JobResponse LabExecutor::execute(const JobRequest& request) {
  try {
    return run(request);
  } catch (const std::exception& e) {
    return error_response(request, e.what());
  }
}

JobResponse LabExecutor::run(const JobRequest& request) {
  JobResponse response;
  response.id = request.id;

  switch (request.kind) {
    case JobKind::kSolo: {
      if (request.workload.empty()) {
        return error_response(request, "solo job needs a workload");
      }
      const EvalRequest cell =
          EvalRequest::solo(request.workload, request.optimizer,
                            request.measure, request.hierarchy);
      const std::vector<EvalOutcome> outcomes =
          lab_.evaluate_all_checked({&cell, 1});
      if (!outcomes[0].ok()) return error_response(request, outcomes[0].error);
      response.results.push_back(lab_.solo(request.workload, request.optimizer,
                                           request.measure,
                                           request.hierarchy));
      return response;
    }

    case JobKind::kLayout: {
      if (request.workload.empty()) {
        return error_response(request, "layout job needs a workload");
      }
      const EvalRequest cell =
          EvalRequest::layout(request.workload, request.optimizer);
      const std::vector<EvalOutcome> outcomes =
          lab_.evaluate_all_checked({&cell, 1});
      if (!outcomes[0].ok()) return error_response(request, outcomes[0].error);
      const CodeLayout& layout =
          lab_.layout(request.workload, request.optimizer);
      response.layout.blocks = layout.block_order().size();
      response.layout.total_bytes = layout.total_bytes();
      response.layout.overhead_bytes = layout.overhead_bytes();
      response.layout.fixups = layout.fixup_count();
      std::uint64_t h = fnv1a(kFnvSeed, layout.block_order().size());
      for (const BlockId b : layout.block_order()) h = fnv1a(h, b.value);
      response.layout.order_checksum = h;
      return response;
    }

    case JobKind::kCorun: {
      if (request.parties.size() < 2) {
        return error_response(request, "corun job needs >= 2 parties");
      }
      for (const CorunPartyRequest& party : request.parties) {
        if (party.workload.empty()) {
          return error_response(request, "corun party needs a workload");
        }
        if (!request.cpi_speeds &&
            !(std::isfinite(party.speed) && party.speed > 0.0)) {
          return error_response(request, "corun party speed must be finite "
                                         "and positive");
        }
      }
      if (!request.cpi_speeds && request.parties[0].speed != 1.0) {
        return error_response(
            request, "the measured party (parties[0]) defines the speed "
                     "unit; its speed must be 1.0");
      }

      // The canonical pair under CPI-derived speeds is exactly a Lab co-run
      // cell: route it through Lab::corun so service responses are
      // byte-identical to the in-process engine (pinned by the golden
      // round-trip test).
      if (request.cpi_speeds && request.parties.size() == 2) {
        const EvalRequest cell = EvalRequest::corun(
            request.parties[0].workload, request.parties[0].optimizer,
            request.parties[1].workload, request.parties[1].optimizer,
            request.measure, request.hierarchy);
        const std::vector<EvalOutcome> outcomes =
            lab_.evaluate_all_checked({&cell, 1});
        if (!outcomes[0].ok()) {
          return error_response(request, outcomes[0].error);
        }
        const CorunResult& result = lab_.corun(
            request.parties[0].workload, request.parties[0].optimizer,
            request.parties[1].workload, request.parties[1].optimizer,
            request.measure, request.hierarchy);
        response.results = {result.self, result.peer};
        return response;
      }

      // General N-party path: materialize every party's layout (checked, so
      // one unknown workload fails this job alone), then assemble a
      // CorunSpec over the Lab's memoized fetch plans.
      std::vector<EvalRequest> cells;
      cells.reserve(request.parties.size());
      for (const CorunPartyRequest& party : request.parties) {
        cells.push_back(EvalRequest::layout(party.workload, party.optimizer));
      }
      for (const EvalOutcome& outcome : lab_.evaluate_all_checked(cells)) {
        if (!outcome.ok()) return error_response(request, outcome.error);
      }
      CorunSpec spec;
      spec.options = request.measure == Measure::kHardware
                         ? hardware_proxy_options()
                         : SimOptions{};
      spec.options.hierarchy = request.hierarchy;
      spec.parties.reserve(request.parties.size());
      const PreparedWorkload& self = lab_.workload(request.parties[0].workload);
      for (std::size_t i = 0; i < request.parties.size(); ++i) {
        const CorunPartyRequest& party = request.parties[i];
        const PreparedWorkload& prepared = lab_.workload(party.workload);
        CorunSpec::Party p;
        p.plan = &lab_.fetch_plan(party.workload, party.optimizer,
                                  request.hierarchy.l1.line_bytes);
        p.trace = &prepared.eval_blocks;
        if (i == 0) {
          p.speed = 1.0;
        } else if (request.cpi_speeds) {
          p.speed = lab_.peer_speed(self, prepared);  // as Lab::corun
        } else {
          p.speed = party.speed;
        }
        spec.parties.push_back(p);
      }
      response.results = simulate_corun(spec);
      return response;
    }

    case JobKind::kTraceStats: {
      const Trace& trace = request.trace;
      response.trace_stats.events = trace.size();
      response.trace_stats.distinct_symbols = trace.distinct_count();
      std::uint64_t h = fnv1a(kFnvSeed, trace.size());
      h = fnv1a(h, trace.is_block() ? 0 : 1);
      trace.for_each_run([&](Symbol symbol, std::uint64_t length) {
        ++response.trace_stats.runs;
        h = fnv1a(h, symbol);
        h = fnv1a(h, length);
      });
      response.trace_stats.checksum = h;
      return response;
    }

    case JobKind::kIntrospect:
      // Introspection is answered inline by ServiceServer::submit and never
      // reaches an executor; reaching here means a caller bypassed the
      // server.
      return error_response(request,
                            "introspect jobs are served by the daemon, not "
                            "the executor");

    case JobKind::kCoSchedule: {
      if (request.parties.size() < 2) {
        return error_response(request, "co-schedule job needs >= 2 parties");
      }
      for (const CorunPartyRequest& party : request.parties) {
        if (party.workload.empty()) {
          return error_response(request, "co-schedule party needs a workload");
        }
      }
      if (request.slots == 0) {
        return error_response(request, "co-schedule job needs >= 1 slot");
      }

      // Materialize every party's layout up front (checked, so one unknown
      // workload fails this job alone), then build the memoized solo
      // profiles and run the closed-form assignment — no simulation until
      // the verification pass below.
      std::vector<EvalRequest> cells;
      cells.reserve(request.parties.size());
      for (const CorunPartyRequest& party : request.parties) {
        cells.push_back(EvalRequest::layout(party.workload, party.optimizer));
      }
      for (const EvalOutcome& outcome : lab_.evaluate_all_checked(cells)) {
        if (!outcome.ok()) return error_response(request, outcome.error);
      }
      std::vector<const SoloProfile*> profiles;
      profiles.reserve(request.parties.size());
      for (const CorunPartyRequest& party : request.parties) {
        profiles.push_back(&lab_.solo_profile(
            party.workload, party.optimizer, request.hierarchy.l1.line_bytes));
      }
      const PairCostMatrix costs =
          compute_pair_costs(profiles, request.hierarchy, lab_.perf());
      // Infeasible instances (parties > 2 * slots) throw ContractError here;
      // execute() turns that into a kError response with the contract text.
      const ScheduleResult schedule = schedule_corun(costs, request.slots);
      response.schedule.pairs.reserve(schedule.pairs.size());
      for (const SchedulePair& pair : schedule.pairs) {
        response.schedule.pairs.push_back(
            {pair.a, pair.b, pair.predicted_misses});
      }
      response.schedule.unpaired.assign(schedule.unpaired.begin(),
                                        schedule.unpaired.end());
      response.schedule.predicted_total_misses =
          schedule.predicted_total_misses;
      response.schedule.refine_passes = schedule.refine_passes;

      // Verification: replay the k costliest chosen pairs on the bit-exact
      // co-run engine, both directions, via checked cells. results[] holds
      // two SimResults per verified pair (a-vs-b then b-vs-a) in `verified`
      // order — byte-identical to the in-process Lab::corun answers.
      const std::vector<std::size_t> verify =
          top_k_pairs(schedule, request.verify_top_k);
      response.schedule.verified.assign(verify.begin(), verify.end());
      std::vector<EvalRequest> corun_cells;
      corun_cells.reserve(verify.size() * 2);
      for (const std::size_t idx : verify) {
        const SchedulePair& pair = schedule.pairs[idx];
        const CorunPartyRequest& a = request.parties[pair.a];
        const CorunPartyRequest& b = request.parties[pair.b];
        corun_cells.push_back(EvalRequest::corun(a.workload, a.optimizer,
                                                 b.workload, b.optimizer,
                                                 request.measure,
                                                 request.hierarchy));
        corun_cells.push_back(EvalRequest::corun(b.workload, b.optimizer,
                                                 a.workload, a.optimizer,
                                                 request.measure,
                                                 request.hierarchy));
      }
      for (const EvalOutcome& outcome :
           lab_.evaluate_all_checked(corun_cells)) {
        if (!outcome.ok()) return error_response(request, outcome.error);
      }
      for (const std::size_t idx : verify) {
        const SchedulePair& pair = schedule.pairs[idx];
        const CorunPartyRequest& a = request.parties[pair.a];
        const CorunPartyRequest& b = request.parties[pair.b];
        const CorunResult& ab =
            lab_.corun(a.workload, a.optimizer, b.workload, b.optimizer,
                       request.measure, request.hierarchy);
        const CorunResult& ba =
            lab_.corun(b.workload, b.optimizer, a.workload, a.optimizer,
                       request.measure, request.hierarchy);
        response.results.push_back(ab.self);
        response.results.push_back(ba.self);
      }
      return response;
    }
  }
  return error_response(request, "unknown job kind");
}

// ---- ServiceServer ----------------------------------------------------------

ServiceServer::ServiceServer(ServerConfig config,
                             std::unique_ptr<JobExecutor> executor)
    : config_(config),
      executor_(std::move(executor)),
      cache_(config.cache),
      start_nanos_(now_nanos()) {
  CL_CHECK_MSG(executor_ != nullptr, "service server needs an executor");
  CL_CHECK_MSG(config_.workers >= 1, "service server needs >= 1 worker");
  CL_CHECK_MSG(config_.queue_depth >= 1,
               "service server needs a queue depth >= 1");
  workers_.reserve(config_.workers);
  for (unsigned i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ServiceServer::~ServiceServer() { shutdown(); }

void ServiceServer::submit(JobRequest request,
                           std::function<void(JobResponse)> deliver,
                           std::uint64_t request_bytes) {
  CL_CHECK_MSG(deliver != nullptr, "submit needs a deliver callback");
  bump("service.jobs.submitted");

  if (request.kind == JobKind::kIntrospect) {
    // Served inline on the submitting thread: no queue, no cache, works
    // while every worker is saturated and while the server is draining.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.submitted;
      ++stats_.introspected;
    }
    bump("service.jobs.introspected");
    JobResponse response = introspect_response(request);
    response.receipt.bytes_decoded = request_bytes;
    deliver(std::move(response));
    return;
  }

  // Admission control under the lock; every deliver call outside it.
  JobResponse inline_response;
  bool respond_inline = false;
  const std::string key =
      config_.cache_enabled ? request.canonical_key() : std::string{};
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (draining_) {
      ++stats_.shutdown_rejected;
      inline_response = error_response(request, "server is shutting down");
      inline_response.status = JobStatus::kShuttingDown;
      respond_inline = true;
    }
  }
  if (!respond_inline && config_.cache_enabled) {
    std::optional<JobResponse> hit;
    {
      // The lookup runs under the request's trace context so its span joins
      // the client's trace in a merged export.
      ScopedJobContext scope(
          JobContext{request.trace_id, request.span_id, nullptr});
      CODELAYOUT_SPAN("cache_lookup", "service", {"id", request.id});
      hit = cache_.lookup(key);
    }
    if (hit) {
      hit->id = request.id;
      // The receipt keeps the original computation's counts; the cache
      // lookup itself consumed no queue time or execute wall time.
      hit->receipt.cached = true;
      hit->receipt.queue_wait_nanos = 0;
      hit->receipt.wall_nanos = 0;
      hit->receipt.bytes_decoded = request_bytes;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.cache_hits;
      }
      push_recent(RecentJob{request.id, request.kind, hit->status,
                            request.trace_id, 0, 0, true,
                            hit->receipt.predict_calls,
                            hit->receipt.profile_memo_hits});
      deliver(std::move(*hit));
      return;
    }
  }
  if (!respond_inline) {
    std::unique_lock<std::mutex> lock(mu_);
    // Recheck under the same lock that enqueues: shutdown() may have set
    // draining_ while the cache lookup ran lock-free, and workers exit once
    // the queue is empty — a job enqueued after that point would never run.
    if (draining_) {
      ++stats_.shutdown_rejected;
      inline_response = error_response(request, "server is shutting down");
      inline_response.status = JobStatus::kShuttingDown;
      respond_inline = true;
    } else if (queued_ >= config_.queue_depth) {
      ++stats_.rejected;
      inline_response =
          error_response(request, "job queue is full (depth " +
                                      std::to_string(config_.queue_depth) +
                                      ")");
      inline_response.status = JobStatus::kRejected;
      respond_inline = true;
      bump("service.jobs.rejected");
    } else {
      const auto priority = static_cast<std::size_t>(request.priority);
      queues_[priority].push_back(QueuedJob{std::move(request),
                                            std::move(deliver), now_nanos(),
                                            request_bytes});
      ++queued_;
      stats_.queue_peak = std::max(stats_.queue_peak, queued_);
      lock.unlock();
      work_cv_.notify_one();
      return;
    }
  }
  deliver(std::move(inline_response));
}

JobResponse ServiceServer::call(const JobRequest& request) {
  auto promise = std::make_shared<std::promise<JobResponse>>();
  std::future<JobResponse> future = promise->get_future();
  submit(request, [promise](JobResponse response) {
    promise->set_value(std::move(response));
  });
  return future.get();
}

void ServiceServer::worker_loop() {
  for (;;) {
    QueuedJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return queued_ > 0 || draining_; });
      if (queued_ == 0) return;  // draining and nothing left to run
      // Highest priority class first; FIFO within a class.
      for (int p = 2; p >= 0; --p) {
        if (!queues_[p].empty()) {
          job = std::move(queues_[p].front());
          queues_[p].pop_front();
          break;
        }
      }
      --queued_;
      ++inflight_;
    }
    finish_job(std::move(job));
    {
      std::lock_guard<std::mutex> lock(mu_);
      --inflight_;
    }
    idle_cv_.notify_all();
  }
}

void ServiceServer::finish_job(QueuedJob job) {
  const std::uint64_t start = now_nanos();
  const std::uint64_t queue_wait = start - job.enqueue_nanos;
  MetricsRegistry& registry = MetricsRegistry::global();
  if (registry.enabled()) {
    registry.histogram("service.queue.wait_ns").record(queue_wait);
  }
  CostCounters cost;
  JobResponse response;
  {
    // Execute under the request's trace context: every span the job records
    // — down through the Lab's stages and the kernels' fast paths — carries
    // the client-assigned trace id, and the Lab's memo lookups report into
    // `cost`. The accumulator outlives all of the job's pool tasks because
    // the Lab's batch calls block until their tasks finish.
    ScopedJobContext scope(
        JobContext{job.request.trace_id, job.request.span_id, &cost});
    if (TraceRecorder::instance().enabled()) {
      TraceRecorder::instance().record_span("queue-wait", "service",
                                            job.enqueue_nanos, queue_wait,
                                            {SpanArg{"id", job.request.id}});
    }
    CODELAYOUT_SPAN("service_job", "service",
                    {"kind", job_kind_name(job.request.kind)},
                    {"id", job.request.id});
    response = executor_->execute(job.request);
  }
  const std::uint64_t wall = now_nanos() - start;
  if (registry.enabled()) {
    registry.histogram("service.job.wall_ns").record(wall);
    registry.counter("service.jobs.completed").add(1);
  }

  // Cost attribution: simulated-work counts fall out of the results (so the
  // receipt provably matches the SimResults it rides with), memo traffic out
  // of the ambient accumulator, timing out of this function's own clocks.
  CostReceipt& receipt = response.receipt;
  for (const SimResult& r : response.results) {
    receipt.events += r.instructions + r.overhead_instructions;
    receipt.cache_probes += r.line_probes;
    receipt.l2_probes += r.l2_probes;
  }
  receipt.memo_hits = cost.memo_hits.load(std::memory_order_relaxed);
  receipt.memo_misses = cost.memo_misses.load(std::memory_order_relaxed);
  receipt.bytes_decoded = job.request_bytes;
  receipt.queue_wait_nanos = queue_wait;
  receipt.wall_nanos = wall;
  // Closed-form predictor attribution out of the same accumulator.
  receipt.predict_calls = cost.predict_calls.load(std::memory_order_relaxed);
  receipt.profile_memo_hits =
      cost.predict_profile_hits.load(std::memory_order_relaxed);

  if (config_.cache_enabled && response.status == JobStatus::kOk) {
    // Stored entries carry id 0 (the cache's documented contract); lookup
    // callers re-stamp the requester's id on a hit. The cached receipt keeps
    // this computation's counts; hits overwrite the per-call fields.
    response.id = 0;
    cache_.insert(job.request.canonical_key(), response);
  }
  response.id = job.request.id;
  push_recent(RecentJob{job.request.id, job.request.kind, response.status,
                        job.request.trace_id, queue_wait, wall, false,
                        receipt.predict_calls, receipt.profile_memo_hits});
  {
    // Count the completion before the response leaves the building: a
    // client that has its answer must see it reflected in a stats snapshot
    // (service_stat polls a live daemon and benches read stats() right
    // after their last response).
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed;
  }
  job.deliver(std::move(response));
}

void ServiceServer::push_recent(const RecentJob& job) {
  std::lock_guard<std::mutex> lock(recent_mu_);
  recent_.push_front(job);
  if (recent_.size() > kRecentJobsCapacity) recent_.pop_back();
}

std::vector<ServiceServer::RecentJob> ServiceServer::recent_jobs() const {
  std::lock_guard<std::mutex> lock(recent_mu_);
  return {recent_.begin(), recent_.end()};
}

JobResponse ServiceServer::introspect_response(const JobRequest& request) {
  JobResponse response;
  response.id = request.id;
  switch (request.introspect) {
    case IntrospectKind::kStats: {
      Stats snapshot;
      std::size_t queued = 0;
      std::size_t inflight = 0;
      bool draining = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        snapshot = stats_;
        queued = queued_;
        inflight = inflight_;
        draining = draining_;
      }
      const ResponseCache::Stats cache = cache_.stats();
      JsonWriter json;
      json.field("status", draining ? "draining" : "ok")
          .field("uptime_ns", now_nanos() - start_nanos_)
          .field("workers", static_cast<std::uint64_t>(config_.workers))
          .field("queue_depth",
                 static_cast<std::uint64_t>(config_.queue_depth))
          .field("queued", static_cast<std::uint64_t>(queued))
          .field("inflight", static_cast<std::uint64_t>(inflight));
      json.begin_object("jobs")
          .field("submitted", snapshot.submitted)
          .field("completed", snapshot.completed)
          .field("cache_hits", snapshot.cache_hits)
          .field("rejected", snapshot.rejected)
          .field("shutdown_rejected", snapshot.shutdown_rejected)
          .field("introspected", snapshot.introspected)
          .field("queue_peak",
                 static_cast<std::uint64_t>(snapshot.queue_peak))
          .end_object();
      json.begin_object("cache")
          .field("enabled", config_.cache_enabled)
          .field("hits", cache.hits)
          .field("misses", cache.misses)
          .field("insertions", cache.insertions)
          .field("evictions", cache.evictions)
          .field("entries", static_cast<std::uint64_t>(cache.entries))
          .field("bytes", static_cast<std::uint64_t>(cache.bytes))
          .end_object();
      response.introspect = json.finish();
      return response;
    }

    case IntrospectKind::kHealth: {
      bool draining = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        draining = draining_;
      }
      JsonWriter json;
      json.field("status", draining ? "draining" : "ok")
          .field("uptime_ns", now_nanos() - start_nanos_);
      response.introspect = json.finish();
      return response;
    }

    case IntrospectKind::kMetricsJson:
      response.introspect = MetricsRegistry::global().to_json();
      return response;

    case IntrospectKind::kPrometheus:
      response.introspect = MetricsRegistry::global().dump_prometheus();
      return response;

    case IntrospectKind::kRecentJobs: {
      const std::vector<RecentJob> recent = recent_jobs();
      JsonWriter json;
      json.field("count", static_cast<std::uint64_t>(recent.size()));
      json.begin_array("recent");
      for (const RecentJob& job : recent) {
        json.begin_object()
            .field("id", job.id)
            .field("kind", job_kind_name(job.kind))
            .field("status", job_status_name(job.status))
            .field("trace_id", job.trace_id)
            .field("queue_wait_ns", job.queue_wait_nanos)
            .field("wall_ns", job.wall_nanos)
            .field("cached", job.cached)
            .field("predict_calls", job.predict_calls)
            .field("profile_memo_hits", job.profile_memo_hits)
            .end_object();
      }
      json.end_array();
      response.introspect = json.finish();
      return response;
    }

    case IntrospectKind::kTraceExport: {
      // Absolute timestamps + a distinct pid: ready to merge with a client
      // -side export into one two-process Perfetto file (the steady clock is
      // shared machine-wide, so the tracks line up).
      TraceExportOptions options;
      options.pid = 2;
      options.process_name = "service-daemon";
      options.absolute_timestamps = true;
      response.introspect =
          TraceRecorder::instance().export_chrome_trace(options);
      return response;
    }
  }
  return error_response(request, "unknown introspect kind");
}

void ServiceServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_ && workers_.empty()) return;  // already shut down
    draining_ = true;
  }
  work_cv_.notify_all();

  // Stop the acceptor first so no new connections arrive mid-drain, then
  // give every blocked reader an EOF; their already-admitted jobs drain
  // below before the readers close their fds.
  {
    std::lock_guard<std::mutex> lock(socket_mu_);
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(socket_mu_);
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RD);
  }

  // Workers exit once the queue is empty; joining them means every queued
  // and in-flight job has reached its deliver callback.
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  for (std::thread& reader : connection_threads_) {
    if (reader.joinable()) reader.join();
  }
  connection_threads_.clear();
  close_socket();
}

void ServiceServer::close_socket() {
  std::lock_guard<std::mutex> lock(socket_mu_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!socket_path_.empty()) {
    ::unlink(socket_path_.c_str());
    socket_path_.clear();
  }
  connection_fds_.clear();
}

void ServiceServer::listen_unix(const std::string& path) {
  // Refuse before touching the filesystem: a second call must not unlink
  // and rebind over the live socket (or leak the fresh fd on throw).
  {
    std::lock_guard<std::mutex> lock(socket_mu_);
    CL_CHECK_MSG(listen_fd_ < 0, "server is already listening");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  CL_CHECK_MSG(path.size() < sizeof(addr.sun_path),
               "unix socket path too long: " << path.size() << " bytes (max "
                                             << sizeof(addr.sun_path) - 1
                                             << ")");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  CL_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  ::unlink(path.c_str());  // stale socket from a crashed daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    CL_CHECK_MSG(false, "bind(" << path << ") failed: " << std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(path.c_str());
    CL_CHECK_MSG(false, "listen(" << path
                                  << ") failed: " << std::strerror(err));
  }
  {
    std::lock_guard<std::mutex> lock(socket_mu_);
    if (listen_fd_ >= 0) {  // lost a listen_unix/listen_unix race
      ::close(fd);
      CL_CHECK_MSG(false, "server is already listening");
    }
    listen_fd_ = fd;
    socket_path_ = path;
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

void ServiceServer::accept_loop() {
  for (;;) {
    int listen_fd = -1;
    {
      std::lock_guard<std::mutex> lock(socket_mu_);
      listen_fd = listen_fd_;
    }
    if (listen_fd < 0) return;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down
    }
    std::lock_guard<std::mutex> lock(socket_mu_);
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void ServiceServer::connection_loop(int fd) {
  // Deliveries race the reader and each other; the write end outlives the
  // read loop until every submitted job has answered, so a client that
  // half-closes after its last request still receives all its responses.
  struct WriteEnd {
    explicit WriteEnd(int stream_fd) : fd(stream_fd) {}
    const int fd;
    std::mutex mu;
    std::condition_variable cv;
    std::size_t pending = 0;

    void send_frame(const std::string& frame) {
      std::lock_guard<std::mutex> lock(mu);
      (void)write_all(fd, frame.data(), frame.size());
    }
    void job_done() {
      {
        std::lock_guard<std::mutex> lock(mu);
        --pending;
      }
      cv.notify_all();
    }
  };
  auto write_end = std::make_shared<WriteEnd>(fd);

  for (;;) {
    char header_bytes[kFrameHeaderBytes];
    if (!read_exact(fd, header_bytes, kFrameHeaderBytes)) break;
    JobRequest request;
    std::uint64_t request_bytes = 0;
    try {
      const FrameHeader header = decode_frame_header(header_bytes);
      CL_CHECK_MSG(header.type == FrameType::kRequest,
                   "service frame: expected a request frame");
      std::string payload(header.payload_len, '\0');
      if (header.payload_len > 0 &&
          !read_exact(fd, payload.data(), payload.size())) {
        break;
      }
      request_bytes = header.payload_len;
      request = decode_request_payload(payload);
    } catch (const std::exception& e) {
      // The stream is desynchronized (or speaks another wire version);
      // report and hang up.
      JobResponse response;
      response.status = JobStatus::kError;
      response.error = e.what();
      write_end->send_frame(encode_response_frame(response));
      break;
    }
    {
      std::lock_guard<std::mutex> lock(write_end->mu);
      ++write_end->pending;
    }
    submit(
        std::move(request),
        [write_end](JobResponse response) {
          write_end->send_frame(encode_response_frame(response));
          write_end->job_done();
        },
        request_bytes);
  }

  // EOF (or protocol error): flush in-flight responses, then hang up.
  {
    std::unique_lock<std::mutex> lock(write_end->mu);
    write_end->cv.wait(lock, [&] { return write_end->pending == 0; });
  }
  // Deregister before closing so shutdown() never calls ::shutdown on a
  // recycled descriptor number owned by something else.
  {
    std::lock_guard<std::mutex> lock(socket_mu_);
    connection_fds_.erase(
        std::remove(connection_fds_.begin(), connection_fds_.end(), fd),
        connection_fds_.end());
  }
  ::close(fd);
}

ServiceServer::Stats ServiceServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace codelayout::service
