// Validates the analytic co-run predictor (perfmodel/corun_predictor.hpp)
// against the bit-exact simulator across the workload pair matrix, and
// measures the screening speedup the closed form buys.
//
// The full matrix is N solo-profile builds (one footprint kernel pass per
// workload, memoized by the Lab) plus N^2 closed-form pairing predictions;
// the simulation side is N^2 co-run cells. For every measured ordered pair
// (self, peer) the bench compares the predicted per-instruction co-run miss
// ratio of `self` with the simulated one and reports the mean / p95 / max
// absolute error, plus the solo-prediction error per workload. Predictions
// are always evaluated for the whole matrix (they are microseconds each) and
// hashed into `matrix_checksum`, so a sampled CI run still pins the exact
// model output; --sample S restricts only the simulated (verification) side
// to S deterministically-spread pairs, with the full-matrix simulation wall
// extrapolated from the sampled per-pair cost.
//
//   bench_predictor [--sample S] [--workload A,B,...] [--json] [--threads N]
//                   [--geometry G] [--l2 G]
//
// Both timed sides, the screening and the simulations, run serially on the
// calling thread, so screening_speedup does not depend on --threads.
//
// --json emits the one-line machine-readable report (linted before printing;
// exit 3 on lint failure) after the engine-metrics line; the report is the
// last JSON line, which is what tools/bench_compare.py reads. The
// --predictor-floor gate checks corun_err_max and screening_speedup from it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "harness/lab.hpp"
#include "json_lint.hpp"
#include "support/cli.hpp"
#include "workloads/spec.hpp"

namespace {

using namespace codelayout;

constexpr std::uint64_t kFnvSeed = 14695981039346656037ull;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a_double(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return fnv1a(h, bits);
}

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct PairError {
  std::size_t self = 0;
  std::size_t peer = 0;
  double predicted = 0.0;
  double simulated = 0.0;

  [[nodiscard]] double abs_error() const {
    return std::abs(predicted - simulated);
  }
};

struct ErrorStats {
  double mean = 0.0;
  double p95 = 0.0;
  double worst = 0.0;
};

ErrorStats summarize(std::vector<double> errors) {
  ErrorStats stats;
  if (errors.empty()) return stats;
  double sum = 0.0;
  for (const double e : errors) sum += e;
  stats.mean = sum / static_cast<double>(errors.size());
  std::sort(errors.begin(), errors.end());
  const std::size_t p95_index =
      (errors.size() * 95 + 99) / 100 == 0
          ? 0
          : std::min(errors.size() - 1, (errors.size() * 95 + 99) / 100 - 1);
  stats.p95 = errors[p95_index];
  stats.worst = errors.back();
  return stats;
}

void append_format(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

std::vector<std::string> parse_names(const std::string& list) {
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string name = list.substr(start, comma - start);
    if (!name.empty()) names.push_back(find_spec(name).name);
    start = comma + 1;
  }
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  std::uint64_t sample = 0;
  std::string workload_list;
  CliOptions cli(argv[0],
                 "analytic co-run predictor vs the bit-exact simulator");
  add_bench_flags(cli, args);
  cli.option_u64("--sample", &sample, 1, ~std::uint64_t{0}, "S",
                 "simulate only S deterministically-spread pairs "
                 "(default: the full matrix)");
  cli.option("--workload", &workload_list, "A,B,...",
             "workload subset (default: the full 29-program suite)");
  cli.parse_or_exit(argc, argv);
  apply_bench_observability(args);

  const HierarchySpec hierarchy = args.hierarchy();
  Lab lab(bench_lab_options(args));

  std::vector<std::string> names;
  if (workload_list.empty()) {
    for (const WorkloadSpec& spec : spec_suite()) names.push_back(spec.name);
  } else {
    names = parse_names(workload_list);
  }
  const std::size_t n = names.size();
  const std::size_t pairs_total = n * n;

  // The sampled pair set: every k-th index of the row-major matrix, spread
  // evenly and deterministically (the same S always picks the same pairs).
  std::vector<std::size_t> measured;
  if (sample == 0 || sample >= pairs_total) {
    measured.resize(pairs_total);
    for (std::size_t i = 0; i < pairs_total; ++i) measured[i] = i;
  } else {
    measured.reserve(sample);
    for (std::uint64_t k = 0; k < sample; ++k) {
      measured.push_back(static_cast<std::size_t>(
          k * static_cast<std::uint64_t>(pairs_total) / sample));
    }
  }

  // Both sides start from prepared workloads and memoized fetch plans —
  // the screening and simulation timings below isolate what each adds.
  lab.prepare_all(names);
  for (const std::string& name : names) {
    (void)lab.fetch_plan(name, std::nullopt, hierarchy.l1.line_bytes);
  }

  // --- Screening: N profile builds + N^2 closed-form predictions -------------
  const auto profile_start = std::chrono::steady_clock::now();
  for (const std::string& name : names) {
    (void)lab.solo_profile(name, std::nullopt, hierarchy.l1.line_bytes);
  }
  const double profile_wall_ms = wall_ms_since(profile_start);

  std::vector<CorunPrediction> predictions(pairs_total);
  const auto predict_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      predictions[i * n + j] = lab.predict_corun(names[i], std::nullopt,
                                                 names[j], std::nullopt,
                                                 hierarchy);
    }
  }
  const double predict_wall_ms = wall_ms_since(predict_start);
  const double screen_wall_ms = profile_wall_ms + predict_wall_ms;

  // The exact model output, pinned: a sampled CI run hashes the same full
  // matrix as the checked-in baseline, so model drift fails the checksum
  // gate even when only a few pairs are simulated.
  std::uint64_t matrix_checksum = fnv1a(kFnvSeed, pairs_total);
  for (const CorunPrediction& p : predictions) {
    matrix_checksum = fnv1a_double(matrix_checksum, p.self.corun_miss_ratio);
    matrix_checksum = fnv1a_double(matrix_checksum, p.self.solo_miss_ratio);
  }

  // --- Verification: simulate the measured pairs -----------------------------
  // One cell at a time on this thread, like the screening above, so the
  // speedup compares the two at one width whatever --threads is.
  const auto sim_start = std::chrono::steady_clock::now();
  for (const std::size_t index : measured) {
    (void)lab.corun(names[index / n], std::nullopt, names[index % n],
                    std::nullopt, Measure::kSimulator, hierarchy);
  }
  const double sim_wall_ms = wall_ms_since(sim_start);
  const double sim_wall_est_ms =
      sim_wall_ms * static_cast<double>(pairs_total) /
      static_cast<double>(measured.size());

  std::vector<EvalRequest> solo_requests;
  for (const std::string& name : names) {
    solo_requests.push_back(EvalRequest::solo(name, std::nullopt,
                                              Measure::kSimulator, hierarchy));
  }
  lab.evaluate_all(solo_requests);

  // --- Error envelope --------------------------------------------------------
  std::vector<PairError> pair_errors;
  pair_errors.reserve(measured.size());
  std::vector<double> corun_errors;
  for (const std::size_t index : measured) {
    const std::size_t i = index / n;
    const std::size_t j = index % n;
    const CorunResult& sim =
        lab.corun(names[i], std::nullopt, names[j], std::nullopt,
                  Measure::kSimulator, hierarchy);
    PairError error{i, j, predictions[index].self.corun_miss_ratio,
                    sim.self.miss_ratio()};
    corun_errors.push_back(error.abs_error());
    pair_errors.push_back(error);
  }
  std::vector<double> solo_errors;
  for (std::size_t i = 0; i < n; ++i) {
    const SimResult& sim =
        lab.solo(names[i], std::nullopt, Measure::kSimulator, hierarchy);
    solo_errors.push_back(std::abs(
        predictions[i * n + i].self.solo_miss_ratio - sim.miss_ratio()));
  }
  const ErrorStats corun_stats = summarize(corun_errors);
  const ErrorStats solo_stats = summarize(solo_errors);
  const double screening_speedup =
      screen_wall_ms > 0.0 ? sim_wall_est_ms / screen_wall_ms : 0.0;

  // --- Report ----------------------------------------------------------------
  std::printf(
      "Analytic co-run screening: %zu workloads, %zu/%zu pairs simulated "
      "(geometry %s)\n\n",
      n, measured.size(), pairs_total, hierarchy.to_string().c_str());
  std::printf("  profiles     %10.1f ms  (%zu builds)\n", profile_wall_ms, n);
  std::printf("  predictions  %10.1f ms  (%zu pairs, %.2f us each)\n",
              predict_wall_ms, pairs_total,
              1e3 * predict_wall_ms / static_cast<double>(pairs_total));
  std::printf("  simulations  %10.1f ms  (%zu pairs%s)\n", sim_wall_ms,
              measured.size(),
              measured.size() == pairs_total ? "" : ", sampled");
  std::printf("  screening speedup %.0fx (est. full-matrix sim %.0f ms vs "
              "%.1f ms screen)\n\n",
              screening_speedup, sim_wall_est_ms, screen_wall_ms);
  std::printf("  co-run miss-ratio error: mean %.5f  p95 %.5f  max %.5f\n",
              corun_stats.mean, corun_stats.p95, corun_stats.worst);
  std::printf("  solo   miss-ratio error: mean %.5f  max %.5f\n",
              solo_stats.mean, solo_stats.worst);

  std::sort(pair_errors.begin(), pair_errors.end(),
            [](const PairError& a, const PairError& b) {
              if (a.abs_error() != b.abs_error())
                return a.abs_error() > b.abs_error();
              if (a.self != b.self) return a.self < b.self;
              return a.peer < b.peer;
            });
  std::printf("\n  worst pairs (predicted vs simulated co-run miss ratio):\n");
  for (std::size_t k = 0; k < std::min<std::size_t>(5, pair_errors.size());
       ++k) {
    const PairError& e = pair_errors[k];
    std::printf("    %-14s vs %-14s  %.5f vs %.5f  (err %.5f)\n",
                names[e.self].c_str(), names[e.peer].c_str(), e.predicted,
                e.simulated, e.abs_error());
  }

  if (args.json) {
    emit_metrics_json(args, "predictor", lab);
    std::string out;
    append_format(out,
                  "{\"bench\": \"predictor\", \"host_cores\": %u,"
                  " \"workloads\": %zu, \"pairs_total\": %zu,"
                  " \"pairs_measured\": %zu, \"geometry\": \"%s\","
                  " \"profile_wall_ms\": %.3f, \"predict_wall_ms\": %.3f,"
                  " \"sim_wall_ms\": %.3f, \"sim_wall_est_ms\": %.3f,"
                  " \"screening_speedup\": %.1f,"
                  " \"predict_per_pair_us\": %.3f,"
                  " \"corun_err_mean\": %.6f, \"corun_err_p95\": %.6f,"
                  " \"corun_err_max\": %.6f, \"solo_err_mean\": %.6f,"
                  " \"solo_err_max\": %.6f,"
                  " \"matrix_checksum\": \"0x%016llx\"}",
                  std::thread::hardware_concurrency(), n, pairs_total,
                  measured.size(), hierarchy.to_string().c_str(),
                  profile_wall_ms, predict_wall_ms, sim_wall_ms,
                  sim_wall_est_ms, screening_speedup,
                  1e3 * predict_wall_ms / static_cast<double>(pairs_total),
                  corun_stats.mean, corun_stats.p95, corun_stats.worst,
                  solo_stats.mean, solo_stats.worst,
                  static_cast<unsigned long long>(matrix_checksum));
    codelayout::testing::JsonLinter linter(out);
    if (!linter.valid()) {
      std::fprintf(stderr, "FATAL: generated JSON failed the linter: %s\n",
                   linter.error().c_str());
      return 3;
    }
    std::printf("%s\n", out.c_str());
  }
  finish_observability(args, "predictor");
  return 0;
}
