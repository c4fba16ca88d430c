// perfbench: the measuring half of the end-to-end benchmark. run.py
// builds it, runs one mode, and turns the raw JSON it writes (times in
// integer nanoseconds, fingerprints as hex) into the benchmark's metrics.
//
//   perfbench artifact --workload table2-corun|fig5-layout
//       --threads N --setup-reps K --out FILE
//     One cold regeneration of the artifact by the repository's experiment
//     function (table2_rows / fig5_rows), after K + 1 timed set-ups: each constructs a
//     Lab and prepares the artifact's programs; the last Lab then runs the
//     artifact (wall). run.py starts one process per regeneration, so each
//     one's peak RSS is its own.
//
//   perfbench layers --workload W --threads N --trace-out FILE
//       --out FILE
//     The traced run: the layer walk (walk.hpp) over the artifact's batch,
//     then the same batch through a cold Lab's evaluate_all, untraced.
//
//   perfbench service --daemon BIN --seed S --seconds T --setup-reps K
//       --trace 0|1 --out FILE [--trace-out FILE]
//     Cold rounds of the service stream against fresh daemons until T seconds
//     have passed. The traced run follows them with the layer walk over the
//     stream's distinct cells and a 2-thread Lab's evaluate_all of them.
//
//   perfbench expect --out FILE
//     The expected fingerprints (checksums.json): artifact rows from the
//     repository's experiment functions and every distinct service reply from an
//     in-process LabExecutor.
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cells.hpp"
#include "harness/experiments.hpp"
#include "service/server.hpp"
#include "service_load.hpp"
#include "support/cli.hpp"
#include "support/metrics.hpp"
#include "support/trace_recorder.hpp"
#include "walk.hpp"
#include "workloads/spec.hpp"

using namespace codelayout;
using namespace perfbench;
using service::JobKind;
using service::JobRequest;

namespace {

/// The p99 has ten samples beyond it from 1000 samples on.
constexpr std::size_t kMinLatencySamples = 1000;

struct Args {
  std::string workload;
  unsigned threads = 1;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  unsigned setup_reps = 0;
  unsigned trace = 0;
  std::string daemon;
  std::string out;
  std::string trace_out;
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text << '\n';
  if (!f) throw std::runtime_error("cannot write " + path);
}

std::uint64_t peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

void write_array(JsonWriter& json, const char* key,
                 const std::vector<std::uint64_t>& values) {
  json.begin_array(key);
  for (const std::uint64_t v : values) json.value(v);
  json.end_array();
}

void write_rows(JsonWriter& json, const std::vector<RowChecksum>& rows) {
  json.begin_object("rows");
  for (const RowChecksum& row : rows) json.field(row.name, hex64(row.checksum));
  json.end_object();
}

bool is_table2(const std::string& workload) {
  if (workload == "table2-corun") return true;
  if (workload == "fig5-layout") return false;
  throw std::runtime_error("unknown artifact workload " + workload);
}

std::vector<EvalRequest> artifact_requests(const std::string& workload) {
  return is_table2(workload) ? table2_requests() : fig5_requests();
}

std::vector<RowChecksum> artifact_rows(Lab& lab, const std::string& workload) {
  return is_table2(workload) ? table2_checksums(table2_rows(lab))
                             : fig5_checksums(fig5_rows(lab));
}

/// Evaluates the batch and counts the distinct cells that failed.
std::uint64_t evaluate(Lab& lab, const std::vector<EvalRequest>& requests) {
  std::set<EvalRequest> failed;
  for (const EvalOutcome& outcome : lab.evaluate_all_checked(requests)) {
    if (!outcome.ok()) failed.insert(outcome.request);
  }
  return failed.size();
}

int run_artifact(const Args& args) {
  const std::vector<std::string>& programs = selected_benchmarks();
  const LabOptions options = LabOptions().threads(args.threads);
  std::vector<std::uint64_t> setup_ns;
  std::unique_ptr<Lab> lab;
  for (unsigned r = 0; r <= args.setup_reps; ++r) {
    lab.reset();
    const std::uint64_t start = wall_nanos_now();
    lab = std::make_unique<Lab>(options);
    lab->prepare_all(programs);
    setup_ns.push_back(wall_nanos_now() - start);
  }

  const std::uint64_t cells = unique_cells(artifact_requests(args.workload));
  std::uint64_t failed_cells = 0;
  std::vector<RowChecksum> rows;
  const std::uint64_t start = wall_nanos_now();
  try {
    rows = artifact_rows(*lab, args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed: %s\n", args.workload.c_str(), e.what());
    failed_cells = cells;
  }
  const std::uint64_t wall_ns = wall_nanos_now() - start;

  JsonWriter json;
  json.field("workload", args.workload)
      .field("threads", args.threads)
      .field("cells", cells)
      .field("wall_ns", wall_ns)
      .field("peak_rss_kib", peak_rss_kib())
      .field("failed_cells", failed_cells);
  write_array(json, "setup_ns", setup_ns);
  write_rows(json, rows);
  write_file(args.out, json.finish());
  return 0;
}

/// Runs the walk over `requests`, then a cold Lab over the same batch, and
/// writes the harness and layer figures into `json`. Returns the Lab for row
/// assembly.
std::unique_ptr<Lab> run_layers(JsonWriter& json, unsigned threads,
                                const std::vector<EvalRequest>& requests,
                                const std::vector<JobRequest>& coschedules) {
  const LabOptions options = LabOptions().threads(threads);
  LayerWalk walk(options, threads);
  const std::uint64_t walk_ns = walk.run(requests, coschedules);

  auto lab = std::make_unique<Lab>(options);
  const std::uint64_t t0 = wall_nanos_now();
  const std::uint64_t failed = evaluate(*lab, requests);
  const std::uint64_t evaluate_ns = wall_nanos_now() - t0;
  const LabMetrics metrics = lab->metrics();
  json.field("threads", threads)
      .field("walk_ns", walk_ns)
      .field("evaluate_all_ns", evaluate_ns)
      .field("cells", std::uint64_t{unique_cells(requests)})
      .field("failed_cells", failed)
      .field("cells_computed", metrics.tasks_executed())
      .field("cells_deduplicated", metrics.tasks_deduplicated())
      .field("mismatches", std::uint64_t{walk.mismatches(*lab)});
  json.begin_object("layers");
  walk.totals().write(json);
  json.end_object();
  return lab;
}

int run_artifact_layers(const Args& args) {
  JsonWriter json;
  json.field("workload", args.workload);
  const std::unique_ptr<Lab> lab =
      run_layers(json, args.threads, artifact_requests(args.workload), {});
  write_rows(json, artifact_rows(*lab, args.workload));
  TraceRecorder::instance().write_chrome_trace(args.trace_out);
  write_file(args.out, json.finish());
  return 0;
}

int run_service(const Args& args) {
  const std::vector<JobRequest> universe = service_universe();
  const std::string stem = args.out.substr(0, args.out.rfind('.'));
  const std::string socket = stem + ".sock";
  const std::string log = stem + ".daemon.log";

  std::vector<std::uint64_t> setup_ns, setup_failures;
  for (unsigned r = 0; r < args.setup_reps; ++r) {
    Daemon daemon(args.daemon, socket, log);
    setup_ns.push_back(daemon.wait_healthy());
    setup_failures.push_back(daemon.stop() != 0 ? 1 : 0);
  }

  // Rounds continue past the measuring time, up to twice it, until the
  // latency p99 has ten samples beyond it.
  std::vector<RoundResult> rounds;
  std::size_t samples = 0;
  const std::uint64_t start = wall_nanos_now();
  const std::uint64_t budget = args.seconds * 1'000'000'000ull;
  do {
    const std::vector<std::size_t> stream =
        service_stream(universe, args.seed, rounds.size());
    rounds.push_back(run_round(args.daemon, socket, log, universe, stream,
                               /*connections=*/2, args.trace != 0));
    setup_ns.push_back(rounds.back().setup_ns);
    samples += rounds.back().samples.size();
  } while (wall_nanos_now() - start < budget ||
           (samples < kMinLatencySamples &&
            wall_nanos_now() - start < 2 * budget));

  JsonWriter json;
  json.field("workload", args.workload);
  write_array(json, "setup_ns", setup_ns);
  write_array(json, "setup_failures", setup_failures);
  json.begin_array("universe");
  for (const JobRequest& job : universe) {
    json.begin_object()
        .field("key", request_key(job))
        .field("job", job.to_string())
        .end_object();
  }
  json.end_array();
  json.begin_array("rounds");
  for (const RoundResult& round : rounds) {
    json.begin_object()
        .field("setup_ns", round.setup_ns)
        .field("wall_ns", round.wall_ns)
        .field("peak_rss_kib", round.peak_rss_kib)
        .field("unclean_exit", round.exit_code != 0)
        .begin_array("samples");
    for (const JobSample& s : round.samples) {
      json.begin_object()
          .field("job", std::uint64_t{s.job})
          .field("latency_ns", s.latency_ns)
          .field("status", unsigned{s.status})
          .field("cached", s.cached)
          .field("queue_wait_ns", s.queue_wait_ns)
          .field("exec_ns", s.exec_ns)
          .field("codec_ns", s.codec_ns)
          .field("reply", hex64(s.reply))
          .end_object();
    }
    json.end_array().end_object();
  }
  json.end_array();

  if (args.trace != 0) {
    // The stream's distinct work, in-process: every job's cells for the Lab,
    // and the co-schedule jobs' predictor work for the walk.
    std::vector<EvalRequest> requests;
    std::vector<JobRequest> coschedules;
    for (const JobRequest& job : universe) {
      switch (job.kind) {
        case JobKind::kSolo:
          requests.push_back(EvalRequest::solo(job.workload, job.optimizer,
                                               job.measure, job.hierarchy));
          break;
        case JobKind::kLayout:
          requests.push_back(EvalRequest::layout(job.workload, job.optimizer));
          break;
        case JobKind::kCorun:
          requests.push_back(EvalRequest::corun(
              job.parties[0].workload, job.parties[0].optimizer,
              job.parties[1].workload, job.parties[1].optimizer, job.measure,
              job.hierarchy));
          break;
        case JobKind::kCoSchedule:
          coschedules.push_back(job);
          for (const auto& party : job.parties) {
            requests.push_back(
                EvalRequest::layout(party.workload, party.optimizer));
          }
          break;
        default:
          throw std::runtime_error("unexpected job kind in the universe");
      }
    }
    json.begin_object("in_process");
    (void)run_layers(json, 2, requests, coschedules);
    json.end_object();
    TraceRecorder::instance().write_chrome_trace(args.trace_out);
  }
  write_file(args.out, json.finish());
  return 0;
}

int run_expect(const Args& args) {
  JsonWriter json;
  for (const char* workload : {"table2-corun", "fig5-layout"}) {
    Lab lab(LabOptions().threads(0));
    json.begin_object(workload);
    write_rows(json, artifact_rows(lab, workload));
    json.end_object();
  }
  service::LabExecutor executor(LabOptions().threads(2));
  std::set<std::string> keys;
  json.begin_object("service-mixed");
  for (const JobRequest& job : service_universe()) {
    const service::JobResponse response = executor.execute(job);
    if (response.status != service::JobStatus::kOk) {
      throw std::runtime_error(job.to_string() + ": " + response.error);
    }
    const std::string key = request_key(job);
    if (!keys.insert(key).second) {
      throw std::runtime_error("duplicate request key for " + job.to_string());
    }
    json.begin_object(key)
        .field("job", job.to_string())
        .field("reply", hex64(reply_checksum(response)))
        .end_object();
  }
  json.end_object();
  write_file(args.out, json.finish());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s artifact|layers|service|expect [options]\n",
                 argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  Args args;
  CliOptions cli(std::string(argv[0]) + " " + mode);
  cli.option("--workload", &args.workload, "NAME", "benchmark workload");
  cli.option_uint("--threads", &args.threads, 1, 4096, "N", "engine width");
  cli.option_u64("--seed", &args.seed, 0, ~std::uint64_t{0}, "S",
                 "input seed");
  cli.option_uint("--seconds", &args.seconds, 0, 3600, "T",
                  "measuring time");
  cli.option_uint("--setup-reps", &args.setup_reps, 0, 100, "K",
                  "extra set-ups before measuring");
  cli.option_uint("--trace", &args.trace, 0, 1, "0|1", "traced run");
  cli.option("--daemon", &args.daemon, "BIN", "service_daemon binary");
  cli.option("--out", &args.out, "FILE", "raw result JSON");
  cli.option("--trace-out", &args.trace_out, "FILE", "Perfetto trace JSON");
  cli.parse_or_exit(argc - 1, argv + 1);
  if (args.out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  try {
    if (mode == "artifact") return run_artifact(args);
    if (mode == "layers") return run_artifact_layers(args);
    if (mode == "service") return run_service(args);
    if (mode == "expect") return run_expect(args);
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", mode.c_str(), e.what());
  }
  return 1;
}
