// Throughput / latency bench for the layout-optimization service
// (BENCH_service.json): drives a daemon with N concurrent load-generator
// clients over a unix socket and reports p50/p90/p99 round-trip latency and
// jobs/s.
//
//   bench_service [--clients N] [--jobs N] [--connect PATH] [--json] ...
//
// By default it self-hosts a daemon in-process (real socket, real framing,
// real queue); --connect PATH drives an externally started service_daemon
// instead — the CI smoke job uses that mode. The job mix cycles solo,
// layout, co-run, and trace-stats jobs across all three priority classes.
// A warm-up pass (one client, one pass through the mix) populates the Lab's
// memo tables first, so every measured job runs on a worker and is answered
// from the memo: the distribution reflects steady-state service latency
// rather than one giant first-compute outlier. --json output is validated
// with the test suite's JSON linter (exit 3 on invalid).
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "json_lint.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/cli.hpp"
#include "support/format.hpp"
#include "support/metrics.hpp"
#include "workloads/spec.hpp"

namespace {

using namespace codelayout;
using namespace codelayout::service;

/// The benched job mix: every job kind, both measurement flavours, all three
/// priority classes. Solo and co-run jobs carry `hierarchy` (--geometry /
/// --l2), so a non-default spec exercises the request's hierarchy field and
/// per-geometry memo keys end to end.
std::vector<JobRequest> build_mix(const HierarchySpec& hierarchy) {
  std::vector<JobRequest> mix;

  auto solo = [&](const char* workload, std::optional<Optimizer> optimizer,
                  Measure measure) {
    JobRequest job;
    job.kind = JobKind::kSolo;
    job.workload = workload;
    job.optimizer = optimizer;
    job.measure = measure;
    job.hierarchy = hierarchy;
    mix.push_back(std::move(job));
  };
  solo(kProbe1, std::nullopt, Measure::kHardware);
  solo(kProbe1, kBBAffinity, Measure::kHardware);
  solo(kProbe2, kFuncTrg, Measure::kSimulator);

  JobRequest layout;
  layout.kind = JobKind::kLayout;
  layout.workload = kProbe2;
  layout.optimizer = kBBAffinity;
  mix.push_back(std::move(layout));

  JobRequest corun;
  corun.kind = JobKind::kCorun;
  corun.measure = Measure::kHardware;
  corun.hierarchy = hierarchy;
  corun.parties.push_back({kProbe1, kBBAffinity, 1.0});
  corun.parties.push_back({kProbe2, std::nullopt, 1.0});
  mix.push_back(std::move(corun));

  JobRequest stats;
  stats.kind = JobKind::kTraceStats;
  for (std::uint32_t i = 0; i < 512; ++i) {
    stats.trace.push_run(i % 23, 3 + i % 9);
  }
  mix.push_back(std::move(stats));

  constexpr JobPriority kPriorities[] = {
      JobPriority::kInteractive, JobPriority::kNormal, JobPriority::kBatch};
  for (std::size_t i = 0; i < mix.size(); ++i) {
    mix[i].priority = kPriorities[i % 3];
  }
  return mix;
}

std::string json_report(const LoadGenOptions& load, const LoadGenReport& report,
                        const ServiceServer* server,
                        const HierarchySpec& hierarchy) {
  JsonWriter json;
  json.field("bench", "service");
  // Cross-machine throughput comparison is refused downstream when core
  // counts differ (tools/bench_compare.py).
  json.field("host_cores",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("geometry", hierarchy.to_string());
  json.field("clients", load.clients);
  json.field("jobs_per_client", load.jobs_per_client);
  json.field("jobs", report.jobs);
  json.field("ok", report.ok);
  json.field("errors", report.errors);
  json.field("rejected", report.rejected);
  json.field("wall_seconds", report.wall_seconds);
  json.field("jobs_per_sec", report.jobs_per_sec);
  json.begin_object("latency_ms");
  json.field("mean", report.latency.mean() / 1e6);
  json.field("p50", report.latency.p50 / 1e6);
  json.field("p90", report.latency.p90 / 1e6);
  json.field("p99", report.latency.p99 / 1e6);
  json.field("max", static_cast<double>(report.latency.max) / 1e6);
  json.end_object();
  json.begin_object("cost");
  json.field("events", report.cost.events);
  json.field("cache_probes", report.cost.cache_probes);
  json.field("l2_probes", report.cost.l2_probes);
  json.field("memo_hits", report.cost.memo_hits);
  json.field("memo_misses", report.cost.memo_misses);
  json.field("bytes_decoded", report.cost.bytes_decoded);
  json.field("queue_wait_ms",
             static_cast<double>(report.cost.queue_wait_nanos) / 1e6);
  json.field("exec_wall_ms",
             static_cast<double>(report.cost.wall_nanos) / 1e6);
  // Closed-form predictor work summed over every kOk response's receipt.
  json.field("predict_calls", report.cost.predict_calls);
  json.field("profile_memo_hits", report.cost.profile_memo_hits);
  json.end_object();
  if (server != nullptr) {
    const ServiceServer::Stats stats = server->stats();
    json.begin_object("server");
    json.field("submitted", stats.submitted);
    json.field("completed", stats.completed);
    json.field("introspected", stats.introspected);
    json.field("queue_peak", static_cast<std::uint64_t>(stats.queue_peak));
    json.end_object();
  }
  return json.finish();
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs bench;
  unsigned clients = 4;
  unsigned jobs_per_client = 24;
  std::string connect;

  CliOptions cli(argv[0],
                 "Service load generator: p50/p99 job latency and jobs/s "
                 "under concurrent clients.");
  add_bench_flags(cli, bench);
  cli.option_uint("--clients", &clients, 1, 256, "N",
                  "concurrent client connections");
  cli.option_uint("--jobs", &jobs_per_client, 1, 1u << 20, "N",
                  "jobs per client");
  cli.option("--connect", &connect, "PATH",
             "drive an external daemon at PATH instead of self-hosting");
  cli.parse_or_exit(argc, argv);
  apply_bench_observability(bench);

  std::optional<ServiceServer> server;
  std::string socket_path = connect;
  if (connect.empty()) {
    ServerConfig config;
    config.workers = 2;
    config.queue_depth = 4096;  // benching latency, not admission control
    server.emplace(config,
                   std::make_unique<LabExecutor>(bench_lab_options(bench)));
    socket_path = "bench-service.sock";
    server->listen_unix(socket_path);
  }

  LoadGenOptions load;
  load.socket_path = socket_path;
  load.clients = clients;
  load.jobs_per_client = jobs_per_client;
  load.mix = build_mix(bench.hierarchy());

  // Warm-up: populate the Lab memo tables so the measured run reports
  // steady-state latency.
  LoadGenOptions warmup = load;
  warmup.clients = 1;
  warmup.jobs_per_client = static_cast<unsigned>(load.mix.size());
  const LoadGenReport warm = run_load_generator(warmup);
  if (warm.errors != 0) {
    std::fprintf(stderr, "warm-up reported %llu job errors\n",
                 static_cast<unsigned long long>(warm.errors));
    return 2;
  }

  const LoadGenReport report = run_load_generator(load);

  TextTable table({"metric", "value"});
  table.add_row({"clients", std::to_string(clients)});
  table.add_row({"jobs", fmt_count(report.jobs)});
  table.add_row({"ok / errors / rejected",
                 fmt_count(report.ok) + " / " + fmt_count(report.errors) +
                     " / " + fmt_count(report.rejected)});
  table.add_row({"wall", fmt_fixed(report.wall_seconds, 3) + " s"});
  table.add_row({"jobs/s", fmt_fixed(report.jobs_per_sec, 1)});
  table.add_row({"latency p50", fmt_fixed(report.latency.p50 / 1e6, 3) + " ms"});
  table.add_row({"latency p90", fmt_fixed(report.latency.p90 / 1e6, 3) + " ms"});
  table.add_row({"latency p99", fmt_fixed(report.latency.p99 / 1e6, 3) + " ms"});
  table.add_row({"latency max",
                 fmt_fixed(static_cast<double>(report.latency.max) / 1e6, 3) +
                     " ms"});
  std::printf("%s", table.render().c_str());

  // Where the daemon's time and simulated work went, summed over every kOk
  // response's CostReceipt.
  TextTable cost({"cost", "total"});
  cost.add_row({"events simulated", fmt_count(report.cost.events)});
  cost.add_row({"cache probes", fmt_count(report.cost.cache_probes)});
  cost.add_row({"l2 probes", fmt_count(report.cost.l2_probes)});
  cost.add_row({"memo hits / misses",
                fmt_count(report.cost.memo_hits) + " / " +
                    fmt_count(report.cost.memo_misses)});
  cost.add_row({"request bytes decoded",
                fmt_bytes(report.cost.bytes_decoded)});
  cost.add_row({"queue wait",
                fmt_fixed(static_cast<double>(report.cost.queue_wait_nanos) /
                              1e6,
                          3) +
                    " ms"});
  cost.add_row({"execute wall",
                fmt_fixed(static_cast<double>(report.cost.wall_nanos) / 1e6,
                          3) +
                    " ms"});
  cost.add_row({"predict calls / memo hits",
                fmt_count(report.cost.predict_calls) + " / " +
                    fmt_count(report.cost.profile_memo_hits)});
  std::printf("%s", cost.render().c_str());

  const std::string json =
      json_report(load, report, server ? &*server : nullptr,
                  bench.hierarchy());
  if (bench.json) std::printf("%s\n", json.c_str());
  std::string json_error;
  if (!codelayout::testing::json_is_valid(json, &json_error)) {
    std::fprintf(stderr, "invalid JSON report: %s\n", json_error.c_str());
    return 3;
  }

  if (server) server->shutdown();

  // Two-process trace: against an external daemon, fetch its absolute-
  // timestamp export over the wire and splice it with our own so one
  // Perfetto file shows the whole job — client service_call spans (pid 1)
  // and daemon queue-wait/execute spans (pid 2) joined by trace id.
  // Self-hosted runs share one recorder, so the plain export already holds
  // both sides.
  if (!connect.empty() && !bench.trace_out.empty()) {
    ServiceClient stat_client = ServiceClient::connect_unix(connect);
    const std::string daemon_trace =
        stat_client.introspect(IntrospectKind::kTraceExport);
    TraceExportOptions local_options;
    local_options.pid = 1;
    local_options.process_name = "bench_service";
    local_options.absolute_timestamps = true;
    const std::string local_trace =
        TraceRecorder::instance().export_chrome_trace(local_options);
    const std::string merged =
        merge_chrome_traces(local_trace, daemon_trace);
    std::string merged_error;
    if (!codelayout::testing::json_is_valid(merged, &merged_error)) {
      std::fprintf(stderr, "invalid merged trace: %s\n",
                   merged_error.c_str());
      return 3;
    }
    std::ofstream out(bench.trace_out, std::ios::binary);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   bench.trace_out.c_str());
      return 3;
    }
    out << merged;
    std::fprintf(stderr, "merged two-process trace written to %s\n",
                 bench.trace_out.c_str());
    bench.trace_out.clear();  // finish_observability must not overwrite it
  }

  finish_observability(bench, "bench_service");
  if (report.errors != 0) {
    std::fprintf(stderr, "%llu jobs reported errors\n",
                 static_cast<unsigned long long>(report.errors));
    return 4;
  }
  return 0;
}
