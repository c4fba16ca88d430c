// Live introspection CLI for a running service daemon: polls the kIntrospect
// surface (served inline, never queued — it works even when every worker is
// busy) and renders the stats snapshot as a TextTable, or dumps the raw
// introspection documents.
//
//   service_stat --connect PATH                 one-shot stats table
//   service_stat --connect PATH --watch         live table every --interval-ms
//   service_stat --connect PATH --json          raw stats JSON snapshot
//   service_stat --connect PATH --prometheus    Prometheus text exposition
//   service_stat --connect PATH --recent        last-completed-jobs ring
//   service_stat --connect PATH --trace-out F   daemon-side Perfetto export
//
// Every JSON document is validated with the test suite's linter and the
// Prometheus dump with the exposition-format linter (exit 3 on invalid), so
// CI can use this binary as a protocol check as well as an ops tool.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "json_lint.hpp"
#include "prom_lint.hpp"
#include "service/client.hpp"
#include "support/cli.hpp"
#include "support/format.hpp"

namespace {

using namespace codelayout;
using namespace codelayout::service;

/// Flat scanner over the daemon's stats JSON: finds the value after the
/// first `"key":` occurrence. The introspection documents are single-level
/// enough (and their keys unique enough) that a full parser buys nothing.
std::string find_raw(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  std::size_t i = at + needle.size();
  if (i < json.size() && json[i] == '"') {
    const std::size_t end = json.find('"', i + 1);
    if (end == std::string::npos) return "";
    return json.substr(i + 1, end - i - 1);
  }
  std::size_t end = i;
  while (end < json.size() && json[end] != ',' && json[end] != '}' &&
         json[end] != ']') {
    ++end;
  }
  return json.substr(i, end - i);
}

std::uint64_t find_u64(const std::string& json, const std::string& key) {
  const std::string raw = find_raw(json, key);
  return raw.empty() ? 0 : std::strtoull(raw.c_str(), nullptr, 10);
}

int lint_json_or_die(const std::string& doc, const char* what) {
  std::string error;
  if (!codelayout::testing::json_is_valid(doc, &error)) {
    std::fprintf(stderr, "daemon returned invalid %s JSON: %s\n", what,
                 error.c_str());
    return 3;
  }
  return 0;
}

std::string render_stats_table(const std::string& stats) {
  TextTable table({"metric", "value"});
  table.add_row({"status", find_raw(stats, "status")});
  table.add_row({"uptime",
                 fmt_fixed(static_cast<double>(find_u64(stats, "uptime_ns")) /
                               1e9,
                           1) +
                     " s"});
  table.add_row({"workers", fmt_count(find_u64(stats, "workers"))});
  table.add_row({"queued / depth",
                 fmt_count(find_u64(stats, "queued")) + " / " +
                     fmt_count(find_u64(stats, "queue_depth"))});
  table.add_row({"inflight", fmt_count(find_u64(stats, "inflight"))});
  table.add_row({"jobs submitted", fmt_count(find_u64(stats, "submitted"))});
  table.add_row({"jobs completed", fmt_count(find_u64(stats, "completed"))});
  table.add_row({"jobs introspected",
                 fmt_count(find_u64(stats, "introspected"))});
  table.add_row({"jobs rejected",
                 fmt_count(find_u64(stats, "rejected") +
                           find_u64(stats, "shutdown_rejected"))});
  table.add_row({"queue peak", fmt_count(find_u64(stats, "queue_peak"))});
  table.add_row({"cache hits / misses",
                 fmt_count(find_u64(stats, "cache_hits")) + " / " +
                     fmt_count(find_u64(stats, "misses"))});
  table.add_row({"cache entries", fmt_count(find_u64(stats, "entries"))});
  table.add_row({"cache bytes", fmt_bytes(find_u64(stats, "bytes"))});
  table.add_row({"cache evictions", fmt_count(find_u64(stats, "evictions"))});
  return table.render();
}

std::string render_recent_table(const std::string& doc) {
  TextTable table({"id", "kind", "status", "trace_id", "queue_wait",
                   "wall", "cached", "predict"});
  // Walk the "recent" array object by object; the documents contain no
  // nested braces inside these objects.
  std::size_t pos = doc.find("\"recent\":[");
  if (pos != std::string::npos) {
    pos += 10;
    while (true) {
      const std::size_t open = doc.find('{', pos);
      const std::size_t close = doc.find('}', pos);
      if (open == std::string::npos || close == std::string::npos ||
          close < open) {
        break;
      }
      const std::string job = doc.substr(open, close - open + 1);
      table.add_row(
          {std::to_string(find_u64(job, "id")), find_raw(job, "kind"),
           find_raw(job, "status"), std::to_string(find_u64(job, "trace_id")),
           fmt_fixed(static_cast<double>(find_u64(job, "queue_wait_ns")) /
                         1e6,
                     3) +
               " ms",
           fmt_fixed(static_cast<double>(find_u64(job, "wall_ns")) / 1e6, 3) +
               " ms",
           find_raw(job, "cached"),
           // Predictor attribution: closed-form predictions the
           // job ran vs solo-profile memo hits it was served.
           std::to_string(find_u64(job, "predict_calls")) + "p/" +
               std::to_string(find_u64(job, "profile_memo_hits")) + "h"});
      pos = close + 1;
    }
  }
  return table.render();
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  bool watch = false;
  bool json = false;
  bool prometheus = false;
  bool recent = false;
  unsigned interval_ms = 1000;
  unsigned iterations = 0;
  std::string trace_out;

  CliOptions cli(argv[0],
                 "Live daemon introspection: stats table, Prometheus dump, "
                 "recent jobs, daemon-side trace export.");
  cli.option("--connect", &connect, "PATH",
             "unix socket of the running service daemon (required)");
  cli.flag("--watch", &watch, "poll and re-render until interrupted");
  cli.option_uint("--interval-ms", &interval_ms, 1, 60000, "MS",
                  "--watch poll interval (default 1000)");
  cli.option_uint("--iterations", &iterations, 0, 1u << 20, "N",
                  "stop --watch after N polls (0 = until interrupted)");
  cli.flag("--json", &json, "print the raw stats JSON snapshot");
  cli.flag("--prometheus", &prometheus,
           "print the Prometheus text exposition");
  cli.flag("--recent", &recent, "print the recent-jobs ring");
  cli.option("--trace-out", &trace_out, "FILE",
             "fetch the daemon-side Perfetto trace export and write it");
  cli.parse_or_exit(argc, argv);

  if (connect.empty()) {
    std::fprintf(stderr, "service_stat: --connect PATH is required\n%s\n",
                 cli.usage().c_str());
    return 2;
  }

  ServiceClient client = ServiceClient::connect_unix(connect);

  if (!trace_out.empty()) {
    const std::string trace = client.introspect(IntrospectKind::kTraceExport);
    if (const int rc = lint_json_or_die(trace, "trace export")) return rc;
    std::ofstream out(trace_out, std::ios::binary);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_out.c_str());
      return 2;
    }
    out << trace;
    std::fprintf(stderr, "daemon trace written to %s (%zu bytes)\n",
                 trace_out.c_str(), trace.size());
  }

  if (prometheus) {
    const std::string dump = client.introspect(IntrospectKind::kPrometheus);
    std::string error;
    if (!codelayout::testing::prom_is_valid(dump, &error)) {
      std::fprintf(stderr, "daemon returned an invalid Prometheus dump: %s\n",
                   error.c_str());
      return 3;
    }
    std::printf("%s", dump.c_str());
    return 0;
  }

  if (recent) {
    const std::string doc = client.introspect(IntrospectKind::kRecentJobs);
    if (const int rc = lint_json_or_die(doc, "recent-jobs")) return rc;
    if (json) {
      std::printf("%s\n", doc.c_str());
    } else {
      std::printf("%s", render_recent_table(doc).c_str());
    }
    return 0;
  }

  const unsigned polls = watch ? iterations : 1;
  for (unsigned i = 0; polls == 0 || i < polls; ++i) {
    if (i != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    const std::string stats = client.introspect(IntrospectKind::kStats);
    if (const int rc = lint_json_or_die(stats, "stats")) return rc;
    if (json) {
      std::printf("%s\n", stats.c_str());
    } else {
      if (i != 0) std::printf("\n");
      std::printf("%s", render_stats_table(stats).c_str());
    }
    std::fflush(stdout);
    if (!watch) break;
  }
  return 0;
}
