// Extension — the paper's Sec. III-F conjecture, tested; plus the fleet
// version of the question as an optimization problem.
//
// "We conjecture that in cases where the active code size is large ... and
// the number of co-run programs is high, combining defensiveness and
// politeness should see a synergistic improvement."
//
// Default mode: with two hyper-threads the paper found no synergy —
// optimizing one program already removes the contention. Here we scale the
// co-run to 3 and 4 SMT threads per core (Power-7/8 style) and measure the
// miss ratio of one program as progressively more of its peers are
// layout-optimized. If the conjecture holds, the marginal benefit of
// optimizing each additional peer stays positive at higher thread counts,
// unlike the 2-thread saturation.
//
// Scheduling mode (--programs A,B,... --slots M): instead of a fixed mix,
// treat the mix as the decision: given N programs and M SMT pair slots,
// which programs should share? The analytic predictor screens every pairing
// in closed form (perfmodel/scheduler.hpp), the greedy + local-search
// assignment minimizes total predicted front-level misses, and the K
// costliest chosen pairs are verified against the bit-exact co-run
// simulator. Both this mode and the service's co_schedule job kind call
// harness/experiments.hpp's co_schedule.
//
// --json appends the one-line self-linted data report (exit 3 on lint
// failure) after the engine-metrics line in both modes.
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "harness/experiments.hpp"
#include "json_lint.hpp"
#include "support/cli.hpp"
#include "support/format.hpp"
#include "workloads/spec.hpp"

using namespace codelayout;

namespace {

void append_format(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

/// Lints `doc` and prints it as the bench's final JSON line; exits 3 when
/// the generated document does not parse (self-validation, as
/// bench_corun_perf does).
void emit_linted(const std::string& doc) {
  codelayout::testing::JsonLinter linter(doc);
  if (!linter.valid()) {
    std::fprintf(stderr, "FATAL: generated JSON failed the linter: %s\n",
                 linter.error().c_str());
    std::exit(3);
  }
  std::printf("%s\n", doc.c_str());
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

/// The N-way conjecture sweep (the original extension).
int run_conjecture(const BenchArgs& args, Lab& lab,
                   const HierarchySpec& hierarchy) {
  // Cache-sensitive programs with moderate footprints.
  const std::vector<std::string> names = {"458.sjeng", "471.omnetpp",
                                          "403.gcc", "483.xalancbmk"};
  // Everything the N-way co-runs below consume: prepared workloads plus the
  // baseline and BB-affinity layouts, as one up-front batch.
  std::vector<EvalRequest> requests;
  for (const std::string& name : names) {
    requests.push_back(EvalRequest::layout(name, std::nullopt));
    requests.push_back(EvalRequest::layout(name, kBBAffinity));
  }
  lab.evaluate_all(requests);

  std::printf(
      "Extension: N-way SMT co-run, optimizing peers one at a time\n"
      "(measured program: %s; optimizer: BB affinity; miss ratio of the\n"
      "measured program under the hw proxy)\n\n",
      names[0].c_str());

  struct Cell {
    std::size_t threads, optimized;
    double base_self, opt_self, marginal;
  };
  std::vector<Cell> cells;
  TextTable table({"threads", "peers optimized", "self miss (base self)",
                   "self miss (opt self)", "marginal gain"});
  for (std::size_t threads = 2; threads <= 4; ++threads) {
    double prev_opt = -1.0;
    for (std::size_t optimized = 0; optimized < threads; ++optimized) {
      auto run = [&](bool optimize_self) {
        // One CorunSpec carries parties, speeds, and the hw-proxy flags;
        // fetch plans come memoized from the Lab (one per layout, shared
        // across every N-way cell below).
        CorunSpec spec;
        spec.options = hardware_proxy_options();
        spec.options.hierarchy = hierarchy;
        for (std::size_t i = 0; i < threads; ++i) {
          const std::string& name = names[i % names.size()];
          const PreparedWorkload& w = lab.workload(name);
          const bool use_opt =
              (i == 0 && optimize_self) || (i > 0 && i <= optimized);
          const std::optional<Optimizer> opt =
              use_opt ? std::optional<Optimizer>(kBBAffinity) : std::nullopt;
          spec.parties.push_back(CorunSpec::Party{
              &lab.fetch_plan(name, opt, hierarchy.l1.line_bytes),
              &w.eval_blocks, 1.0});
        }
        return simulate_corun(spec)[0].miss_ratio();
      };
      const double base_self = run(false);
      const double opt_self = run(true);
      const double marginal =
          prev_opt < 0 ? 0.0 : 1.0 - opt_self / prev_opt;
      table.add_row({std::to_string(threads), std::to_string(optimized),
                     fmt_pct(base_self), fmt_pct(opt_self),
                     prev_opt < 0 ? "—" : fmt_pct(marginal, 1)});
      cells.push_back({threads, optimized, base_self, opt_self,
                       prev_opt < 0 ? 0.0 : marginal});
      prev_opt = opt_self;
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Reading: the baseline contention grows with the thread count (the\n"
      "base-self column), and optimizing each additional peer keeps\n"
      "lowering the measured program's miss ratio at 3-4 threads — the\n"
      "politeness of every peer matters once the cache is oversubscribed,\n"
      "supporting the paper's synergy conjecture for higher thread counts.\n"
      "(Runtime synergy at 2 threads remains negligible, as in Sec. III-F;\n"
      "see bench_sec3f_defensive_polite.)\n");
  finish_bench(args, "ext_multiprogram", lab);
  if (args.json) {
    std::string out;
    append_format(out,
                  "{\"bench\": \"ext_multiprogram\", \"mode\": \"conjecture\","
                  " \"host_cores\": %u, \"measured\": \"%s\", \"cells\": [",
                  std::thread::hardware_concurrency(), names[0].c_str());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      append_format(out,
                    "%s{\"threads\": %zu, \"optimized\": %zu,"
                    " \"base_self\": %.6f, \"opt_self\": %.6f,"
                    " \"marginal\": %.6f}",
                    i == 0 ? "" : ", ", c.threads, c.optimized, c.base_self,
                    c.opt_self, c.marginal);
    }
    out += "]}";
    emit_linted(out);
  }
  return 0;
}

/// The scheduling mode: minimize total predicted misses over pair slots,
/// then verify the costliest chosen pairs bit-exactly.
int run_schedule(const BenchArgs& args, Lab& lab,
                 const HierarchySpec& hierarchy,
                 const std::vector<std::string>& names, std::size_t slots,
                 std::size_t verify_top) {
  std::vector<EvalRequest> programs;
  programs.reserve(names.size());
  for (const std::string& name : names) {
    programs.push_back(EvalRequest::layout(name, std::nullopt));
  }
  const CoSchedule plan = co_schedule(lab, programs, slots, verify_top,
                                      Measure::kSimulator, hierarchy);
  const ScheduleResult& schedule = plan.schedule;

  std::printf(
      "Co-scheduling %zu programs onto %zu SMT pair slots (geometry %s):\n"
      "minimize total predicted front-level misses; %zu closed-form pairing\n"
      "predictions, %u local-search refinement pass(es).\n\n",
      names.size(), slots, hierarchy.to_string().c_str(),
      names.size() * (names.size() - 1) / 2, schedule.refine_passes);

  TextTable table({"slot", "programs", "predicted misses"});
  std::size_t slot = 0;
  for (const SchedulePair& pair : schedule.pairs) {
    table.add_row({std::to_string(slot++),
                   names[pair.a] + " + " + names[pair.b],
                   fmt_count(static_cast<std::uint64_t>(pair.predicted_misses))});
  }
  for (const std::size_t index : schedule.unpaired) {
    table.add_row(
        {std::to_string(slot++), names[index] + " (alone)",
         fmt_count(static_cast<std::uint64_t>(plan.costs.solo[index]))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("predicted total misses: %.0f\n\n",
              schedule.predicted_total_misses);

  // Bit-exact verification of the K costliest chosen pairs: both directions
  // of the pairing, each party measured over its full trace — the exact
  // quantity the predictor's objective sums.
  struct Verified {
    std::size_t a, b;
    double predicted, simulated;
  };
  std::vector<Verified> verified;
  for (std::size_t i = 0; i < plan.verified.size(); ++i) {
    const SchedulePair& pair = schedule.pairs[plan.verified[i]];
    verified.push_back(
        {pair.a, pair.b, pair.predicted_misses,
         static_cast<double>(plan.simulated[2 * i].misses()) +
             static_cast<double>(plan.simulated[2 * i + 1].misses())});
  }
  if (!verified.empty()) {
    std::printf("verification (bit-exact simulator, %zu costliest pairs):\n",
                verified.size());
    for (const Verified& v : verified) {
      const double rel =
          v.simulated > 0.0 ? (v.predicted - v.simulated) / v.simulated : 0.0;
      std::printf("  %-14s + %-14s  predicted %.0f vs simulated %.0f"
                  "  (%+.1f%%)\n",
                  names[v.a].c_str(), names[v.b].c_str(), v.predicted,
                  v.simulated, 100.0 * rel);
    }
  }
  finish_bench(args, "ext_multiprogram", lab);
  if (args.json) {
    std::string out;
    append_format(out,
                  "{\"bench\": \"ext_multiprogram\", \"mode\": \"schedule\","
                  " \"host_cores\": %u, \"slots\": %zu,"
                  " \"predicted_total_misses\": %.3f, \"refine_passes\": %u,"
                  " \"pairs\": [",
                  std::thread::hardware_concurrency(), slots,
                  schedule.predicted_total_misses, schedule.refine_passes);
    for (std::size_t i = 0; i < schedule.pairs.size(); ++i) {
      const SchedulePair& pair = schedule.pairs[i];
      append_format(out,
                    "%s{\"self\": \"%s\", \"peer\": \"%s\","
                    " \"predicted_misses\": %.3f}",
                    i == 0 ? "" : ", ", names[pair.a].c_str(),
                    names[pair.b].c_str(), pair.predicted_misses);
    }
    out += "], \"unpaired\": [";
    for (std::size_t i = 0; i < schedule.unpaired.size(); ++i) {
      append_format(out, "%s\"%s\"", i == 0 ? "" : ", ",
                    names[schedule.unpaired[i]].c_str());
    }
    out += "], \"verified\": [";
    for (std::size_t i = 0; i < verified.size(); ++i) {
      const Verified& v = verified[i];
      append_format(out,
                    "%s{\"self\": \"%s\", \"peer\": \"%s\","
                    " \"predicted_misses\": %.3f,"
                    " \"simulated_misses\": %.0f}",
                    i == 0 ? "" : ", ", names[v.a].c_str(), names[v.b].c_str(),
                    v.predicted, v.simulated);
    }
    out += "]}";
    emit_linted(out);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args;
  std::string programs;
  std::uint64_t slots = 0;
  std::uint64_t verify_top = 2;
  CliOptions cli(argv[0],
                 "N-way SMT co-run extension; with --programs/--slots, "
                 "predictor-driven co-scheduling");
  add_bench_flags(cli, args);
  cli.option("--programs", &programs, "A,B,...",
             "co-schedule these workloads (enables the scheduling mode; "
             "requires --slots)");
  cli.option_u64("--slots", &slots, 1, 64, "M",
                 "SMT pair slots for the scheduling mode");
  cli.option_u64("--verify-top", &verify_top, 0, 64, "K",
                 "bit-exact verify the K costliest chosen pairs (default 2)");
  cli.parse_or_exit(argc, argv);
  apply_bench_observability(args);

  const HierarchySpec hierarchy = args.hierarchy();
  Lab lab(bench_lab_options(args));
  if (programs.empty() && slots == 0) {
    return run_conjecture(args, lab, hierarchy);
  }
  if (programs.empty() || slots == 0) {
    std::fprintf(stderr,
                 "error: the scheduling mode needs both --programs and "
                 "--slots\n%s\n",
                 cli.usage().c_str());
    return 2;
  }
  return run_schedule(args, lab, hierarchy, parse_names(programs),
                      static_cast<std::size_t>(slots),
                      static_cast<std::size_t>(verify_top));
}
