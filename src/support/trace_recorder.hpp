// Flight recorder: a thread-safe, low-overhead scoped-span tracer whose
// output loads directly in Perfetto / chrome://tracing.
//
//   CODELAYOUT_SPAN("solo", "lab", {"workload", name}, {"optimizer", opt});
//
// Each thread appends completed spans to its own fixed-capacity ring buffer
// (a true flight recorder: when the ring wraps, the oldest spans are
// overwritten and counted as dropped). Buffers register once per thread
// under the recorder mutex; recording afterwards takes only that thread's
// buffer lock, which is uncontended except against an in-flight export.
//
// The disabled path is a single relaxed atomic load + branch per span site:
// span names, argument strings, and timestamps are only materialized when
// tracing is on (the macro defers argument construction behind the enabled
// check). Tracing never perturbs results — it reads clocks and writes side
// buffers, so deterministic outputs (golden checksums) are identical with
// tracing on and off.
//
// Export serializes every buffered span as Chrome trace-event JSON
// ("traceEvents" complete events, ph:"X", microsecond timestamps) with one
// track per recorded thread, plus thread_name metadata.
//
// Cross-process stitching (ISSUE 8): a thread can carry an ambient
// JobContext — a client-assigned trace id / span id plus an optional
// per-job cost accumulator. record_span tags every span recorded while a
// context is active with its trace id, the thread pool re-installs the
// submitter's context inside its workers, and exports can be parameterized
// with a pid / process name / absolute timestamps so two processes' traces
// merge (merge_chrome_traces) into one Perfetto file whose spans line up on
// the shared steady clock and join on the propagated trace id.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/metrics.hpp"
#include "support/registry.hpp"

namespace codelayout {

/// One key/value annotation on a span. Keys are expected to be string
/// literals; values are stringified eagerly (the macro only builds SpanArgs
/// when tracing is enabled).
struct SpanArg {
  SpanArg(const char* k, std::string v) : key(k), value(std::move(v)) {}
  SpanArg(const char* k, std::string_view v) : key(k), value(v) {}
  SpanArg(const char* k, const char* v) : key(k), value(v) {}
  SpanArg(const char* k, std::uint64_t v) : key(k), value(std::to_string(v)) {}
  SpanArg(const char* k, unsigned v) : key(k), value(std::to_string(v)) {}
  SpanArg(const char* k, int v) : key(k), value(std::to_string(v)) {}

  const char* key;
  std::string value;
};

/// Per-job cost accumulator. Atomic because one job's work fans out over
/// pool threads that all report into the same accumulator; the owner must
/// outlive every task submitted while it was ambient (the Lab's batch calls
/// block until their tasks finish, so a stack-allocated accumulator around
/// an executor call is safe).
struct CostCounters {
  std::atomic<std::uint64_t> memo_hits{0};    ///< memo lookups served cached
  std::atomic<std::uint64_t> memo_misses{0};  ///< memo cells computed
  // Analytic co-run screening attribution (perfmodel/corun_predictor.hpp):
  // closed-form predictions evaluated for this job, and how many of the solo
  // profiles they consumed came from the Lab's memo instead of a fresh
  // kernel pass.
  std::atomic<std::uint64_t> predict_calls{0};
  std::atomic<std::uint64_t> predict_profile_hits{0};
};

/// Ambient per-thread job identity: the trace id / span id a client stamped
/// on the request, plus an optional cost accumulator. Installed with
/// ScopedJobContext; the thread pool captures the submitter's context at
/// submit() and re-installs it around the task, so spans recorded deep in
/// the Lab's fan-out still carry the originating job's trace id.
struct JobContext {
  std::uint64_t trace_id = 0;  ///< 0 = no trace context
  std::uint64_t span_id = 0;
  CostCounters* cost = nullptr;

  [[nodiscard]] bool active() const {
    return trace_id != 0 || cost != nullptr;
  }
};

/// The calling thread's ambient context (all-defaults when none installed).
[[nodiscard]] JobContext current_job_context();

/// RAII install/restore of the ambient JobContext (nests).
class ScopedJobContext {
 public:
  explicit ScopedJobContext(JobContext context);
  ~ScopedJobContext();

  ScopedJobContext(const ScopedJobContext&) = delete;
  ScopedJobContext& operator=(const ScopedJobContext&) = delete;

 private:
  JobContext saved_;
};

/// Knobs for export_chrome_trace. The defaults reproduce the classic
/// single-process export byte for byte.
struct TraceExportOptions {
  /// The pid stamped on every event (Perfetto groups tracks by process).
  std::uint32_t pid = 1;
  /// Emitted as a process_name metadata event when non-empty.
  std::string process_name;
  /// false: ts is relative to this recorder's construction. true: ts is the
  /// raw steady-clock reading — two processes on one machine share that
  /// clock, so their absolute-timestamp exports align when merged.
  bool absolute_timestamps = false;
};

class TraceRecorder {
 public:
  /// Default ring capacity per thread, in spans.
  static constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

  /// The process-wide recorder. Enabled at startup when the CODELAYOUT_TRACE
  /// environment variable is set (and non-"0").
  static TraceRecorder& instance();

  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void enable();
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Applies to thread buffers registered after the call (tests shrink it to
  /// exercise the wrap path).
  void set_ring_capacity(std::size_t spans);

  /// Records one completed span on the calling thread's ring. When the
  /// calling thread carries an ambient JobContext with a trace id, the span
  /// gains "trace_id" (and, when nonzero, "span_id") args automatically.
  void record_span(const char* name, const char* category,
                   std::uint64_t start_nanos, std::uint64_t duration_nanos,
                   std::vector<SpanArg> args);

  /// Names the calling thread's track in the exported trace ("worker-3").
  void set_thread_name(std::string name);

  /// Spans overwritten by ring wrap-around, across all threads.
  [[nodiscard]] std::uint64_t dropped_spans() const;
  /// Buffered (exportable) spans across all threads.
  [[nodiscard]] std::uint64_t recorded_spans() const;

  /// Empties every registered ring (thread registrations survive).
  void clear();

  /// The full Chrome trace-event / Perfetto JSON document.
  [[nodiscard]] std::string export_chrome_trace(
      const TraceExportOptions& options = {}) const;

  /// export_chrome_trace() written to `path`; throws ContractError on IO
  /// failure.
  void write_chrome_trace(const std::string& path,
                          const TraceExportOptions& options = {}) const;

 private:
  struct Span {
    const char* name;
    const char* category;
    std::uint64_t start_nanos;
    std::uint64_t duration_nanos;
    std::vector<SpanArg> args;
  };

  struct ThreadBuffer {
    mutable std::mutex mutex;
    std::vector<Span> ring;
    std::size_t capacity = kDefaultRingCapacity;
    std::uint64_t pushed = 0;  ///< lifetime spans; ring holds the newest
    std::string name;
    std::uint32_t tid = 0;
  };

  ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  /// Process-unique (never reused, unlike `this`): lets the thread-local
  /// buffer cache detect that it belongs to a different, possibly destroyed
  /// recorder instance.
  const std::uint64_t recorder_id_;
  const std::uint64_t base_nanos_;  ///< ts origin: recorder construction
  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::uint32_t next_tid_ = 1;
  std::size_t ring_capacity_ = kDefaultRingCapacity;
};

/// Splices the "traceEvents" arrays of two exported Chrome trace documents
/// into one (e.g. a client-side export and a daemon-side export fetched over
/// the introspection surface) and sums their dropped-span counts. Export
/// both sides with distinct pids and absolute timestamps so the merged file
/// shows two aligned process tracks. Throws ContractError when either
/// document lacks a well-formed traceEvents array.
[[nodiscard]] std::string merge_chrome_traces(std::string_view a,
                                              std::string_view b);

/// RAII span: captures the start time at construction and records the
/// completed span at destruction. Inactive (one boolean test) when the
/// recorder is disabled at construction time.
class ScopedSpan {
 public:
  /// `args_fn() -> std::vector<SpanArg>` is only invoked when tracing is
  /// enabled, keeping the disabled path free of string construction.
  template <typename ArgsFn>
  ScopedSpan(const char* name, const char* category, ArgsFn&& args_fn) {
    if (!TraceRecorder::instance().enabled()) return;
    name_ = name;
    category_ = category;
    args_ = args_fn();
    start_nanos_ = wall_nanos_now();
  }
  ScopedSpan(const char* name, const char* category)
      : ScopedSpan(name, category, [] { return std::vector<SpanArg>{}; }) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (name_ == nullptr) return;
    TraceRecorder::instance().record_span(name_, category_, start_nanos_,
                                          wall_nanos_now() - start_nanos_,
                                          std::move(args_));
  }

  [[nodiscard]] bool active() const { return name_ != nullptr; }

 private:
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  std::uint64_t start_nanos_ = 0;
  std::vector<SpanArg> args_;
};

/// Scoped span + latency histogram in one: the same measured interval feeds
/// the named MetricsRegistry histogram (when metrics are enabled) and the
/// trace (when tracing is enabled). Two branches when both are off.
class ScopedPhase {
 public:
  template <typename ArgsFn>
  ScopedPhase(const char* name, const char* category,
              const char* histogram_name, ArgsFn&& args_fn) {
    const bool trace = TraceRecorder::instance().enabled();
    const bool metrics = MetricsRegistry::global().enabled();
    if (!trace && !metrics) return;
    name_ = name;
    category_ = category;
    histogram_name_ = histogram_name;
    trace_ = trace;
    if (trace) args_ = args_fn();
    start_nanos_ = wall_nanos_now();
  }
  ScopedPhase(const char* name, const char* category,
              const char* histogram_name)
      : ScopedPhase(name, category, histogram_name,
                    [] { return std::vector<SpanArg>{}; }) {}

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() {
    if (name_ == nullptr) return;
    const std::uint64_t duration = wall_nanos_now() - start_nanos_;
    if (MetricsRegistry::global().enabled()) {
      MetricsRegistry::global().histogram(histogram_name_).record(duration);
    }
    if (trace_) {
      TraceRecorder::instance().record_span(name_, category_, start_nanos_,
                                            duration, std::move(args_));
    }
  }

 private:
  const char* name_ = nullptr;
  const char* category_ = nullptr;
  const char* histogram_name_ = nullptr;
  bool trace_ = false;
  std::uint64_t start_nanos_ = 0;
  std::vector<SpanArg> args_;
};

#define CL_SPAN_CONCAT_IMPL(a, b) a##b
#define CL_SPAN_CONCAT(a, b) CL_SPAN_CONCAT_IMPL(a, b)

/// Scoped trace span. Arguments after the category are {key, value} pairs,
/// built only when tracing is enabled:
///   CODELAYOUT_SPAN("solo", "lab", {"workload", name}, {"optimizer", opt});
#define CODELAYOUT_SPAN(name, category, ...)                        \
  ::codelayout::ScopedSpan CL_SPAN_CONCAT(cl_span_, __LINE__)(      \
      name, category, [&] {                                         \
        return std::vector<::codelayout::SpanArg>{__VA_ARGS__};     \
      })

/// Scoped span + latency histogram (histogram named "phase.<name>_ns" style
/// is up to the caller). Same deferred-args contract as CODELAYOUT_SPAN.
#define CODELAYOUT_PHASE(name, category, histogram, ...)            \
  ::codelayout::ScopedPhase CL_SPAN_CONCAT(cl_phase_, __LINE__)(    \
      name, category, histogram, [&] {                              \
        return std::vector<::codelayout::SpanArg>{__VA_ARGS__};     \
      })

}  // namespace codelayout
