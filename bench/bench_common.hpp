// Shared command-line handling for the bench binaries, built on the typed
// support/cli options API (so service binaries compose their own flags with
// the standard set instead of re-parsing argv).
//
//   --threads N | --threads=N   engine width (N >= 1; omit for one worker
//                               per hardware thread)
//   --json                      append a one-line JSON metrics dump (per-
//                               stage cache hits/computes/waits, wall & CPU
//                               time, dedup counts) after the table output
//   --trace-out FILE            record scoped spans (Lab stages, pipeline
//                               phases, ThreadPool queue-wait/run) and write
//                               a Chrome trace-event / Perfetto JSON file
//   --metrics-out FILE          enable the metrics registry and write its
//                               counters + latency histograms (p50/p90/p99)
//                               as JSON
//
// (bench_analysis_perf is the exception: it is a google-benchmark binary
// with its own --benchmark_* flags and JSON format; it composes via the CLI
// passthrough mode.)
#pragma once

#include <cstdio>
#include <string>

#include "cache/hierarchy.hpp"
#include "harness/lab.hpp"
#include "support/cli.hpp"
#include "support/registry.hpp"
#include "support/trace_recorder.hpp"

namespace codelayout {

struct BenchArgs {
  unsigned threads = 0;  ///< 0 = one worker per hardware thread
  bool json = false;
  std::string trace_out;    ///< empty = tracing off
  std::string metrics_out;  ///< empty = metrics registry off
  std::string geometry;     ///< L1 geometry text; empty = the paper's 32K/4/64
  std::string l2;           ///< shared L2 geometry text; empty = no L2

  /// The cache hierarchy the flags describe (validated; latencies default).
  [[nodiscard]] HierarchySpec hierarchy() const {
    HierarchySpec spec;
    if (!geometry.empty()) spec.l1 = parse_geometry(geometry);
    if (!l2.empty()) spec.l2 = parse_geometry(l2);
    spec.validate();
    return spec;
  }
};

/// Declares the standard bench flags on `cli`, bound to `args`. Binaries
/// with extra flags declare them on the same parser before parse_or_exit.
inline void add_bench_flags(CliOptions& cli, BenchArgs& args) {
  cli.option_uint("--threads", &args.threads, 1, 4096, "N",
                  "engine width (default: one worker per hardware thread)");
  cli.flag("--json", &args.json,
           "append a one-line JSON engine-metrics dump after the output");
  cli.option("--trace-out", &args.trace_out, "FILE",
             "record scoped spans and write a Perfetto/Chrome trace JSON");
  cli.option("--metrics-out", &args.metrics_out, "FILE",
             "enable the metrics registry and write counters + histograms");
  cli.option("--geometry", &args.geometry, "SIZE/ASSOC/LINE",
             "L1I geometry, e.g. 32K/4/64 (default: the paper's 32K/4/64)");
  cli.option("--l2", &args.l2, "SIZE/ASSOC/LINE",
             "add a shared L2 behind private L1s, e.g. 256K/8/64");
}

/// Flips the observability switches before any Lab work happens so the first
/// pipeline phase is already covered.
inline void apply_bench_observability(const BenchArgs& args) {
  if (!args.trace_out.empty()) {
    TraceRecorder::instance().enable();
    TraceRecorder::instance().set_thread_name("main");
  }
  if (!args.metrics_out.empty()) {
    MetricsRegistry::global().set_enabled(true);
  }
}

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  CliOptions cli(argv[0]);
  add_bench_flags(cli, args);
  cli.parse_or_exit(argc, argv);
  apply_bench_observability(args);
  return args;
}

inline LabOptions bench_lab_options(const BenchArgs& args) {
  return LabOptions().threads(args.threads);
}

/// Prints the engine metrics as one JSON line when --json was given.
inline void emit_metrics_json(const BenchArgs& args, const char* bench,
                              const Lab& lab) {
  if (!args.json) return;
  std::printf("%s\n", lab.metrics().to_json(bench).c_str());
}

/// Writes the --trace-out / --metrics-out files (no engine JSON line). For
/// benches without one long-lived Lab; most call finish_bench instead.
inline void finish_observability(const BenchArgs& args, const char* bench) {
  if (!args.trace_out.empty()) {
    TraceRecorder::instance().write_chrome_trace(args.trace_out);
    std::fprintf(stderr, "trace written to %s (%llu spans, %llu dropped)\n",
                 args.trace_out.c_str(),
                 static_cast<unsigned long long>(
                     TraceRecorder::instance().recorded_spans()),
                 static_cast<unsigned long long>(
                     TraceRecorder::instance().dropped_spans()));
  }
  if (!args.metrics_out.empty()) {
    MetricsRegistry::global().write_json(args.metrics_out, bench);
    std::fprintf(stderr, "metrics written to %s\n", args.metrics_out.c_str());
  }
}

/// End-of-main hook: the --json line plus the --trace-out / --metrics-out
/// files. Every table bench calls this exactly once, after its output.
inline void finish_bench(const BenchArgs& args, const char* bench,
                         const Lab& lab) {
  emit_metrics_json(args, bench, lab);
  finish_observability(args, bench);
}

}  // namespace codelayout
