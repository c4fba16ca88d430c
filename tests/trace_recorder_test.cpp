// Flight-recorder tests: disabled-path behavior, ring wrap-around, export
// format, the multi-threaded TSan scenario, and the determinism guarantee
// (identical kernel results with observability on and off).
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_lint.hpp"
#include "locality/footprint.hpp"
#include "support/registry.hpp"
#include "support/trace_recorder.hpp"
#include "trace/trace.hpp"
#include "trg/graph.hpp"

namespace codelayout {
namespace {

using testing::json_is_valid;

/// Counts non-overlapping occurrences of `needle` in `doc`.
std::size_t count_occurrences(const std::string& doc, std::string_view needle) {
  std::size_t n = 0;
  for (std::size_t pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Extracts the tid of every ph:"X" event, relying on the exporter's fixed
/// field order (..."ph":"X","ts":...,"dur":...,"pid":1,"tid":N...).
std::vector<std::uint64_t> complete_event_tids(const std::string& doc) {
  std::vector<std::uint64_t> tids;
  for (std::size_t pos = doc.find(R"("ph":"X")"); pos != std::string::npos;
       pos = doc.find(R"("ph":"X")", pos + 1)) {
    const std::size_t tid_key = doc.find(R"("tid":)", pos);
    EXPECT_NE(tid_key, std::string::npos);
    tids.push_back(std::stoull(doc.substr(tid_key + 6)));
  }
  return tids;
}

/// Restores the process-wide recorder/registry to "off and empty" even when
/// a test fails mid-way.
struct ObservabilityOff {
  ~ObservabilityOff() {
    TraceRecorder::instance().disable();
    TraceRecorder::instance().clear();
    MetricsRegistry::global().set_enabled(false);
  }
};

TEST(ScopedSpanTest, DisabledRecorderSkipsArgConstruction) {
  ObservabilityOff guard;
  TraceRecorder::instance().disable();
  int arg_builds = 0;
  {
    ScopedSpan span("noop", "test", [&] {
      ++arg_builds;
      return std::vector<SpanArg>{{"k", "v"}};
    });
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(arg_builds, 0);
}

TEST(ScopedSpanTest, EnabledRecorderBuildsArgsAndRecords) {
  ObservabilityOff guard;
  TraceRecorder::instance().clear();
  TraceRecorder::instance().enable();
  int arg_builds = 0;
  {
    ScopedSpan span("unit-span", "test", [&] {
      ++arg_builds;
      return std::vector<SpanArg>{{"k", "v"}};
    });
    EXPECT_TRUE(span.active());
  }
  EXPECT_EQ(arg_builds, 1);
  const std::string doc = TraceRecorder::instance().export_chrome_trace();
  EXPECT_NE(doc.find(R"("name":"unit-span")"), std::string::npos);
  EXPECT_NE(doc.find(R"("k":"v")"), std::string::npos);
}

TEST(ScopedSpanTest, MacroCompilesWithZeroOneAndManyArgs) {
  ObservabilityOff guard;
  TraceRecorder::instance().enable();
  const std::string workload = "sjeng";
  {
    CODELAYOUT_SPAN("zero", "test");
    CODELAYOUT_SPAN("one", "test", {"workload", workload});
    CODELAYOUT_SPAN("many", "test", {"workload", workload},
                    {"count", std::uint64_t{3}}, {"mode", "hw"});
  }
  const std::string doc = TraceRecorder::instance().export_chrome_trace();
  for (const char* name : {"zero", "one", "many"}) {
    EXPECT_NE(doc.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos);
  }
}

TEST(TraceRecorderTest, RingWrapKeepsNewestAndCountsDropped) {
  TraceRecorder recorder;
  recorder.set_ring_capacity(8);
  recorder.enable();
  for (int i = 0; i < 12; ++i) {
    recorder.record_span("old", "test", 100 * i, 10, {});
  }
  for (int i = 0; i < 8; ++i) {
    recorder.record_span("new", "test", 10000 + 100 * i, 10, {});
  }
  EXPECT_EQ(recorder.recorded_spans(), 8u);
  EXPECT_EQ(recorder.dropped_spans(), 12u);
  const std::string doc = recorder.export_chrome_trace();
  EXPECT_EQ(count_occurrences(doc, R"("name":"new")"), 8u);
  EXPECT_EQ(count_occurrences(doc, R"("name":"old")"), 0u);
  EXPECT_NE(doc.find(R"("dropped_spans":12)"), std::string::npos);
}

TEST(TraceRecorderTest, ExportOrdersWrappedRingOldestFirst) {
  TraceRecorder recorder;
  recorder.set_ring_capacity(4);
  recorder.enable();
  for (int i = 0; i < 10; ++i) {
    recorder.record_span("tick", "test", 100 * i, 10, {{"i", i}});
  }
  const std::string doc = recorder.export_chrome_trace();
  // The surviving spans are i = 6..9, exported oldest-first.
  std::size_t prev = 0;
  for (int i = 6; i < 10; ++i) {
    const std::size_t pos =
        doc.find("\"i\":\"" + std::to_string(i) + "\"");
    ASSERT_NE(pos, std::string::npos) << "span i=" << i << " missing";
    EXPECT_GT(pos, prev) << "span i=" << i << " out of order";
    prev = pos;
  }
  EXPECT_EQ(doc.find(R"("i":"5")"), std::string::npos);
}

TEST(TraceRecorderTest, ClearEmptiesRingsButKeepsRegistrations) {
  TraceRecorder recorder;
  recorder.enable();
  recorder.record_span("s", "test", 0, 1, {});
  EXPECT_EQ(recorder.recorded_spans(), 1u);
  recorder.clear();
  EXPECT_EQ(recorder.recorded_spans(), 0u);
  EXPECT_EQ(recorder.dropped_spans(), 0u);
  recorder.record_span("s", "test", 5, 1, {});
  EXPECT_EQ(recorder.recorded_spans(), 1u);
}

TEST(TraceRecorderTest, ExportIsValidJsonWithExpectedSkeleton) {
  TraceRecorder recorder;
  recorder.enable();
  recorder.set_thread_name("main");
  recorder.record_span("phase", "pipeline", 1000, 500,
                       {{"workload", "429.mcf"}, {"window", 2048u}});
  const std::string doc = recorder.export_chrome_trace();
  std::string error;
  EXPECT_TRUE(json_is_valid(doc, &error)) << error << "\n" << doc;
  EXPECT_NE(doc.find(R"("displayTimeUnit":"ns")"), std::string::npos);
  EXPECT_NE(doc.find(R"("traceEvents":[)"), std::string::npos);
  EXPECT_NE(doc.find(R"("name":"thread_name")"), std::string::npos);
  EXPECT_NE(doc.find(R"("name":"main")"), std::string::npos);
  EXPECT_NE(doc.find(R"("workload":"429.mcf")"), std::string::npos);
  EXPECT_NE(doc.find(R"("window":"2048")"), std::string::npos);
}

// The satellite concurrency scenario (runs under TSan in CI): N threads emit
// overlapping spans through the macros while naming their threads; the export
// must parse, and every complete event must carry a valid tid.
TEST(TraceRecorderTest, ConcurrentSpansExportValidJson) {
  ObservabilityOff guard;
  TraceRecorder::instance().clear();
  TraceRecorder::instance().enable();

  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      TraceRecorder::instance().set_thread_name("stress-" + std::to_string(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        CODELAYOUT_SPAN("outer", "stress", {"thread", t}, {"i", i});
        {
          // Overlapping nested span on the same thread.
          CODELAYOUT_SPAN("inner", "stress", {"i", i});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  TraceRecorder::instance().disable();

  const std::uint64_t recorded = TraceRecorder::instance().recorded_spans();
  EXPECT_GE(recorded,
            static_cast<std::uint64_t>(kThreads * kSpansPerThread * 2));

  const std::string doc = TraceRecorder::instance().export_chrome_trace();
  std::string error;
  ASSERT_TRUE(json_is_valid(doc, &error)) << error;

  const std::vector<std::uint64_t> tids = complete_event_tids(doc);
  EXPECT_EQ(tids.size(), recorded);
  for (const std::uint64_t tid : tids) {
    EXPECT_GE(tid, 1u);
    EXPECT_LE(tid, 1024u);  // registered-thread ids, not OS tids
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_NE(doc.find("\"name\":\"stress-" + std::to_string(t) + "\""),
              std::string::npos);
  }
  EXPECT_EQ(count_occurrences(doc, R"("name":"inner")"),
            count_occurrences(doc, R"("name":"outer")"));
}

TEST(JobContextTest, ScopedContextInstallsAndRestores) {
  EXPECT_FALSE(current_job_context().active());
  {
    ScopedJobContext outer(JobContext{42, 1, nullptr});
    EXPECT_TRUE(current_job_context().active());
    EXPECT_EQ(current_job_context().trace_id, 42u);
    {
      CostCounters cost;
      ScopedJobContext inner(JobContext{99, 7, &cost});
      EXPECT_EQ(current_job_context().trace_id, 99u);
      EXPECT_EQ(current_job_context().span_id, 7u);
      EXPECT_EQ(current_job_context().cost, &cost);
    }
    // The inner scope restores the outer context, not "no context".
    EXPECT_EQ(current_job_context().trace_id, 42u);
    EXPECT_EQ(current_job_context().cost, nullptr);
  }
  EXPECT_FALSE(current_job_context().active());
}

TEST(JobContextTest, SpansRecordedUnderContextCarryTraceId) {
  ObservabilityOff guard;
  TraceRecorder::instance().clear();
  TraceRecorder::instance().enable();
  {
    ScopedJobContext scope(JobContext{12345, 6, nullptr});
    CODELAYOUT_SPAN("traced", "test", {"extra", "arg"});
  }
  { CODELAYOUT_SPAN("untraced", "test"); }
  const std::string doc = TraceRecorder::instance().export_chrome_trace();
  std::string error;
  ASSERT_TRUE(json_is_valid(doc, &error)) << error;
  // The context-tagged span carries decimal trace/span ids alongside its own
  // args; the context-free span carries neither.
  const std::size_t traced = doc.find(R"("name":"traced")");
  const std::size_t untraced = doc.find(R"("name":"untraced")");
  ASSERT_NE(traced, std::string::npos);
  ASSERT_NE(untraced, std::string::npos);
  EXPECT_NE(doc.find(R"("trace_id":"12345")"), std::string::npos) << doc;
  EXPECT_NE(doc.find(R"("span_id":"6")"), std::string::npos);
  EXPECT_NE(doc.find(R"("extra":"arg")"), std::string::npos);
  EXPECT_EQ(count_occurrences(doc, R"("trace_id")"), 1u);
}

TEST(TraceRecorderTest, ExportOptionsControlPidNameAndTimebase) {
  TraceRecorder recorder;
  recorder.enable();
  recorder.record_span("s", "test", 5000, 100, {});
  // Default export: pid 1, timestamps relative to the earliest span, no
  // process_name metadata. Must be byte-identical to the no-options call.
  const std::string plain = recorder.export_chrome_trace();
  EXPECT_EQ(plain, recorder.export_chrome_trace(TraceExportOptions{}));
  EXPECT_NE(plain.find(R"("pid":1)"), std::string::npos);
  EXPECT_EQ(plain.find(R"("process_name")"), std::string::npos);

  TraceExportOptions options;
  options.pid = 2;
  options.process_name = "daemon";
  options.absolute_timestamps = true;
  const std::string tagged = recorder.export_chrome_trace(options);
  std::string error;
  ASSERT_TRUE(json_is_valid(tagged, &error)) << error;
  EXPECT_NE(tagged.find(R"("pid":2)"), std::string::npos);
  EXPECT_EQ(tagged.find(R"("pid":1)"), std::string::npos);
  EXPECT_NE(tagged.find(R"("name":"process_name")"), std::string::npos);
  EXPECT_NE(tagged.find(R"("name":"daemon")"), std::string::npos);
  // Absolute timestamps keep the raw steady-clock stamp (5000ns = 5us);
  // the default export rebases against the enable() time instead.
  EXPECT_NE(tagged.find(R"("ts":5,)"), std::string::npos) << tagged;
  EXPECT_EQ(plain.find(R"("ts":5,)"), std::string::npos);
}

TEST(TraceRecorderTest, MergeChromeTracesSplicesBothProcesses) {
  TraceRecorder client;
  client.enable();
  client.record_span("service_call", "service", 1000, 900, {});
  TraceRecorder daemon;
  daemon.set_ring_capacity(2);
  daemon.enable();
  for (int i = 0; i < 5; ++i) {
    daemon.record_span("service_job", "service", 1200 + i, 100, {});
  }

  TraceExportOptions client_options;
  client_options.pid = 1;
  client_options.process_name = "client";
  client_options.absolute_timestamps = true;
  TraceExportOptions daemon_options;
  daemon_options.pid = 2;
  daemon_options.process_name = "daemon";
  daemon_options.absolute_timestamps = true;

  const std::string merged =
      merge_chrome_traces(client.export_chrome_trace(client_options),
                          daemon.export_chrome_trace(daemon_options));
  std::string error;
  ASSERT_TRUE(json_is_valid(merged, &error)) << error << "\n" << merged;
  EXPECT_NE(merged.find(R"("name":"service_call")"), std::string::npos);
  EXPECT_NE(merged.find(R"("name":"service_job")"), std::string::npos);
  EXPECT_NE(merged.find(R"("name":"client")"), std::string::npos);
  EXPECT_NE(merged.find(R"("name":"daemon")"), std::string::npos);
  EXPECT_EQ(count_occurrences(merged, R"("traceEvents")"), 1u);
  // Drop counts sum across the inputs: the daemon ring dropped 3 of 5.
  EXPECT_NE(merged.find(R"("dropped_spans":3)"), std::string::npos) << merged;
}

TEST(TraceRecorderTest, MergeToleratesAnEmptySide) {
  TraceRecorder empty;
  empty.enable();
  TraceRecorder full;
  full.enable();
  full.record_span("only", "test", 10, 5, {});
  const std::string merged = merge_chrome_traces(
      empty.export_chrome_trace(), full.export_chrome_trace());
  std::string error;
  ASSERT_TRUE(json_is_valid(merged, &error)) << error << "\n" << merged;
  EXPECT_NE(merged.find(R"("name":"only")"), std::string::npos);
}

// Observability must never perturb results: the analysis kernels return
// bit-identical outputs with tracing + metrics on and off.
TEST(TraceRecorderTest, KernelResultsIdenticalWithObservabilityOn) {
  ObservabilityOff guard;
  Trace trace(Trace::Granularity::kFunction);
  // Deterministic pseudo-random-ish run pattern over 16 symbols.
  for (int i = 0; i < 2000; ++i) {
    trace.push_run(static_cast<Symbol>((i * 7 + i / 13) % 16),
                   1 + (i * 5) % 9);
  }

  TraceRecorder::instance().disable();
  MetricsRegistry::global().set_enabled(false);
  const Trg baseline_trg = Trg::build(trace, TrgConfig{.window_entries = 32});
  const FootprintCurve baseline_fp = FootprintCurve::compute(trace);

  TraceRecorder::instance().enable();
  MetricsRegistry::global().set_enabled(true);
  const Trg traced_trg = Trg::build(trace, TrgConfig{.window_entries = 32});
  const FootprintCurve traced_fp = FootprintCurve::compute(trace);
  TraceRecorder::instance().disable();
  MetricsRegistry::global().set_enabled(false);

  ASSERT_EQ(baseline_trg.node_count(), traced_trg.node_count());
  ASSERT_EQ(baseline_trg.edge_count(), traced_trg.edge_count());
  for (Symbol a = 0; a < 16; ++a) {
    for (Symbol b = 0; b < 16; ++b) {
      if (a == b) continue;
      EXPECT_EQ(baseline_trg.edge_weight(a, b), traced_trg.edge_weight(a, b));
    }
  }
  ASSERT_EQ(baseline_fp.trace_length(), traced_fp.trace_length());
  for (double w : {1.0, 10.0, 100.0, 1000.0}) {
    EXPECT_EQ(baseline_fp.at(w), traced_fp.at(w));  // bit-identical doubles
  }
}

}  // namespace
}  // namespace codelayout
