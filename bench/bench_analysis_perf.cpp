// E8 — google-benchmark timings backing the paper's complexity claims
// (Sec. II-B/C): the fast stack-based affinity analysis scales as O(W*N)
// versus the naive Algorithm 1's O(W*N*B); TRG construction is O(N*Q); TRG
// reduction is polynomial in the node count. Run standalone: prints
// wall-clock per analysis over synthetic traces of growing length.
//
// A second mode measures the analysis kernels over the workload suite:
// per-kernel events/s and an FNV checksum of each kernel's result, paired
// with per-event reference replays where a longhand loop exists (reuse,
// I-cache sim).
//
// The suite also measures the layout front end: the `affinity` kernel runs
// the one-pass affinity analysis over the whole default w-grid, with an FNV
// checksum of the hierarchy, next to the `trg` build. The JSON report
// records host_cores.
//
//   bench_analysis_perf --suite [--events N] [--json]
//   bench_analysis_perf --workload 429.mcf,458.sjeng [--sweep-geometry G,...]
//
// Without these flags the google-benchmark harness runs as before.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "affinity/analysis.hpp"
#include "affinity/naive.hpp"
#include "cache/icache_sim.hpp"
#include "cache/set_assoc.hpp"
#include "support/bytes.hpp"
#include "support/cli.hpp"
#include "exec/interpreter.hpp"
#include "harness/pipeline.hpp"
#include "layout/layout.hpp"
#include "locality/footprint.hpp"
#include "locality/lru_stack.hpp"
#include "locality/reuse.hpp"
#include "support/rng.hpp"
#include "trg/graph.hpp"
#include "trg/reduction.hpp"
#include "workloads/spec.hpp"

namespace {

using namespace codelayout;

/// A loop-structured synthetic trace with `blocks` distinct symbols.
Trace synthetic_trace(std::size_t events, Symbol blocks, std::uint64_t seed) {
  Rng rng(seed);
  Trace t(Trace::Granularity::kBlock);
  t.reserve(events);
  Symbol last = blocks;  // out-of-range sentinel
  while (t.size() < events) {
    // Zipf-biased working sets with local runs, like hot loops.
    const auto base = static_cast<Symbol>(rng.zipf(blocks, 1.1));
    const std::size_t run = 3 + rng.below(6);
    for (std::size_t i = 0; i < run && t.size() < events; ++i) {
      Symbol s = static_cast<Symbol>((base + i) % blocks);
      if (s == last) s = (s + 1) % blocks;
      t.push_symbol(s);
      last = s;
    }
  }
  return t;
}

void BM_AffinityFast(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  const Trace trace = synthetic_trace(events, 256, 42).trimmed();
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_affinity(trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AffinityFast)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_AffinityNaive(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  const Trace trace = synthetic_trace(events, 64, 42).trimmed();
  for (auto _ : state) {
    benchmark::DoNotOptimize(naive_hierarchy(trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AffinityNaive)->Arg(250)->Arg(500)->Arg(1000);

void BM_TrgBuild(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  const Trace trace = synthetic_trace(events, 512, 42).trimmed();
  const TrgConfig config{.window_entries = trg_window_entries(32 * 1024, 64)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(Trg::build(trace, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TrgBuild)->Arg(10000)->Arg(100000)->Arg(400000);

void BM_TrgReduce(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  const Trace trace = synthetic_trace(events, 512, 42).trimmed();
  const Trg graph = Trg::build(
      trace, TrgConfig{.window_entries = trg_window_entries(32 * 1024, 64)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(reduce_trg(graph, 128));
  }
}
BENCHMARK(BM_TrgReduce)->Arg(10000)->Arg(100000);

void BM_FullPipeline(benchmark::State& state) {
  // End-to-end optimizer cost on a real workload: the paper reports the
  // added compilation time is "a couple of times" the original compile.
  const WorkloadSpec& spec = find_spec("458.sjeng");
  const PreparedWorkload prepared = prepare_workload(spec);
  const Optimizer opt = state.range(0) == 0 ? kFuncAffinity : kBBAffinity;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_layout(prepared, opt));
  }
}
BENCHMARK(BM_FullPipeline)->Arg(0)->Arg(1);

// ---- Kernel suite mode ------------------------------------------------------

/// One measured kernel: throughput, the FNV checksum of its result, and
/// optionally a per-event reference replay's throughput.
struct KernelReport {
  const char* name;
  double events_per_sec = 0.0;
  double baseline_events_per_sec = 0.0;  ///< 0 when no reference exists
  std::uint64_t checksum = 0;
};

// FNV checksums of the kernels' outputs (same scheme as the test suite's
// golden hashes: FNV-1a over little-endian 64-bit words).

/// Folds in each group's fields and the occurrences of its members in
/// `trimmed`, the trace it was built from; the occurrence sum keeps the
/// checksums pinned in BENCH_analysis_perf.json at their values.
std::uint64_t hash_hierarchy(const AffinityHierarchy& hierarchy,
                             const Trace& trimmed) {
  std::vector<std::uint64_t> count(trimmed.symbol_space(), 0);
  for (const Symbol s : trimmed.symbols()) ++count[s];
  std::uint64_t h = fnv1a(kFnvSeed, hierarchy.nodes().size());
  for (const AffinityGroup& g : hierarchy.nodes()) {
    std::uint64_t occurrences = 0;
    for (const Symbol s : g.members) occurrences += count[s];
    h = fnv1a(h, g.id);
    h = fnv1a(h, g.formed_at_w);
    h = fnv1a(h, g.first_occurrence);
    h = fnv1a(h, occurrences);
    for (const Symbol s : g.members) h = fnv1a(h, s);
    for (const std::uint32_t c : g.children) h = fnv1a(h, c);
  }
  for (const std::uint32_t r : hierarchy.roots()) h = fnv1a(h, r);
  return h;
}

std::uint64_t hash_trg(const Trg& graph) {
  std::uint64_t h = fnv1a(kFnvSeed, graph.node_count());
  for (const Trg::Edge& e : graph.edges_by_weight()) {
    h = fnv1a(h, e.a);
    h = fnv1a(h, e.b);
    h = fnv1a(h, e.weight);
  }
  return h;
}

std::uint64_t hash_sim_result(const SimResult& r) {
  std::uint64_t h = fnv1a(kFnvSeed, r.instructions);
  h = fnv1a(h, r.overhead_instructions);
  h = fnv1a(h, r.line_probes);
  h = fnv1a(h, r.demand_misses);
  h = fnv1a(h, r.wrong_path_misses);
  h = fnv1a(h, r.blocks);
  h = fnv1a(h, r.l2_probes);
  return fnv1a(h, r.l2_misses);
}

std::uint64_t hash_reuse_profile(const ReuseProfile& profile) {
  std::uint64_t h = fnv1a(kFnvSeed, profile.cold_accesses);
  h = fnv1a(h, profile.total_accesses);
  h = fnv1a(h, profile.distance_histogram.size());
  for (const std::uint64_t v : profile.distance_histogram) h = fnv1a(h, v);
  h = fnv1a(h, profile.time_histogram.size());
  for (const std::uint64_t v : profile.time_histogram) h = fnv1a(h, v);
  return h;
}

std::uint64_t hash_footprint(const FootprintCurve& curve) {
  // Bit patterns, not rounded values: the checksum must see every mantissa
  // bit of the curve.
  const std::vector<double> values = curve.values();
  std::uint64_t h = fnv1a(kFnvSeed, values.size());
  for (const double v : values) {
    h = fnv1a(h, std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

bool g_checksums_ok = true;

/// One cache hierarchy of the icache kernel's --sweep-geometry axis.
struct GeometryPoint {
  std::string geometry;  ///< HierarchySpec::to_string() form
  double events_per_sec = 0.0;
  std::uint64_t checksum = 0;  ///< FNV over the full SimResult
  double amat_cycles = 0.0;
};

struct WorkloadReport {
  std::string name;
  std::uint64_t events = 0;
  std::vector<KernelReport> kernels;
  std::vector<GeometryPoint> geometry_sweep;
};

/// Times `fn`, repeating until at least ~`window` seconds of work (default
/// ~50 ms), and returns events/s.
template <typename Fn>
double measure_events_per_sec(std::uint64_t events, Fn&& fn,
                              double window = 0.05) {
  using clock = std::chrono::steady_clock;
  double elapsed = 0.0;
  std::uint64_t iterations = 0;
  do {
    const auto start = clock::now();
    fn();
    elapsed += std::chrono::duration<double>(clock::now() - start).count();
    ++iterations;
  } while (elapsed < window && iterations < 1000);
  return static_cast<double>(events) * static_cast<double>(iterations) /
         elapsed;
}

/// Bennett–Kruskal reuse, one Fenwick update/query per event, without the
/// kernel's fused mark move and live-mark counter — a longhand reference
/// baseline.
std::uint64_t per_event_reuse(const Trace& trace) {
  const std::span<const Symbol> symbols = trace.symbols();
  std::vector<std::int64_t> tree(trace.size() + 1, 0);
  const auto add = [&](std::size_t pos, int delta) {
    for (std::size_t i = pos + 1; i < tree.size(); i += i & (~i + 1)) {
      tree[i] += delta;
    }
  };
  const auto prefix = [&](std::size_t pos) {
    std::int64_t s = 0;
    for (std::size_t i = pos; i > 0; i -= i & (~i + 1)) s += tree[i];
    return s;
  };
  std::vector<std::uint64_t> last(trace.symbol_space(), kColdReuse);
  std::uint64_t checksum = 0;
  for (std::size_t t = 0; t < symbols.size(); ++t) {
    const Symbol s = symbols[t];
    const std::uint64_t prev = last[s];
    if (prev != kColdReuse) {
      checksum += static_cast<std::uint64_t>(prefix(tree.size() - 1) -
                                             prefix(prev + 1));
      add(prev, -1);
    }
    add(t, +1);
    last[s] = t;
  }
  return checksum;
}

/// A longhand per-event solo fetch loop over the module and layout (no fetch
/// plan) as a reference baseline, accumulating the same statistics as the
/// production kernel.
SimResult per_event_solo(const Module& module, const CodeLayout& layout,
                         const Trace& trace, const SimOptions& options) {
  SetAssocCache cache(options.geometry());
  Rng rng = Rng(options.seed).fork(1);
  SimResult stats;
  for (const Symbol sym : trace.symbols()) {
    const BlockId b(sym);
    const BasicBlock& bb = module.block(b);
    const auto span = layout.lines_of(b, options.geometry().line_bytes);
    const auto& place = layout.placement(b);
    ++stats.blocks;
    stats.instructions += place.bytes / kInstrBytes;
    stats.overhead_instructions += (place.bytes - bb.size_bytes) / kInstrBytes;
    for (std::uint32_t i = 0; i < span.line_count; ++i) {
      const std::uint64_t line = span.first_line + i;
      ++stats.line_probes;
      if (!cache.access(line)) {
        ++stats.demand_misses;
        if (options.next_line_prefetch) (void)cache.access(line + 1);
      }
    }
    if (options.wrong_path_rate > 0.0 && bb.successors.size() > 1 &&
        rng.chance(options.wrong_path_rate)) {
      if (!cache.access(span.first_line + span.line_count)) {
        ++stats.wrong_path_misses;
      }
    }
  }
  return stats;
}

/// Measures one serial kernel: the checksum of its result, and its
/// throughput as the best of three ~50 ms windows (a single window carries
/// double-digit noise on small shared hosts). `invoke()` runs the kernel,
/// `hash(result)` folds its output to 64 bits.
template <typename Invoke, typename Hash>
KernelReport measure_kernel(const char* name, std::uint64_t events,
                            Invoke&& invoke, Hash&& hash) {
  KernelReport report{.name = name};
  report.checksum = hash(invoke());
  for (int round = 0; round < 3; ++round) {
    report.events_per_sec = std::max(
        report.events_per_sec, measure_events_per_sec(events, [&] {
          benchmark::DoNotOptimize(invoke());
        }));
  }
  return report;
}

WorkloadReport measure_workload(const WorkloadSpec& spec,
                                std::uint64_t max_events,
                                const std::vector<HierarchySpec>&
                                    sweep_geometries) {
  const Module module = build_workload(spec);
  const std::uint64_t events = std::min(max_events, spec.profile_events);
  const Trace trace =
      profile(module, /*seed=*/101, {.max_events = events, .max_call_depth = 64})
          .block_trace;
  const CodeLayout layout = original_layout(module);
  const Symbol space = trace.symbol_space();
  const Trace trimmed = trace.trimmed();

  WorkloadReport report{.name = spec.name,
                        .events = trace.size(),
                        .kernels = {},
                        .geometry_sweep = {}};
  const auto n = trace.size();

  report.kernels.push_back(measure_kernel(
      "lru_stack", n,
      [&] {
        LruStack stack(space);
        return replay_lru_hits(trace, stack);
      },
      [](std::uint64_t hits) { return fnv1a(kFnvSeed, hits); }));

  KernelReport reuse = measure_kernel(
      "reuse", n, [&] { return compute_reuse(trace); }, hash_reuse_profile);
  reuse.baseline_events_per_sec = measure_events_per_sec(
      n, [&] { benchmark::DoNotOptimize(per_event_reuse(trace)); });
  report.kernels.push_back(reuse);

  report.kernels.push_back(measure_kernel(
      "footprint", n, [&] { return FootprintCurve::compute(trace); },
      hash_footprint));

  const TrgConfig trg_config{.window_entries =
                                 trg_window_entries(32 * 1024, 64)};
  report.kernels.push_back(measure_kernel(
      "trg", n, [&] { return Trg::build(trace, trg_config); },
      [](const Trg& graph) { return hash_trg(graph); }));

  // Layout front end: the same production entry point the Lab drives.
  report.kernels.push_back(measure_kernel(
      "affinity", n, [&] { return analyze_affinity(trimmed); },
      [&](const AffinityHierarchy& hierarchy) {
        return hash_hierarchy(hierarchy, trimmed);
      }));

  // Bare-LRU simulation (the paper's Pin-simulator flavour).
  const SimOptions sim_options{};
  KernelReport sim = measure_kernel(
      "icache_sim", n,
      [&] { return simulate_solo(module, layout, trace, sim_options); },
      hash_sim_result);
  sim.baseline_events_per_sec = measure_events_per_sec(n, [&] {
    benchmark::DoNotOptimize(per_event_solo(module, layout, trace, sim_options));
  });
  report.kernels.push_back(sim);

  // Geometry axis for the icache kernel: the same trace under each swept
  // hierarchy (DESIGN.md §13), with a checksum over the full SimResult —
  // per-level counters included — so each geometry's output is pinned.
  for (const HierarchySpec& hierarchy : sweep_geometries) {
    SimOptions options;
    options.hierarchy = hierarchy;
    GeometryPoint point{.geometry = hierarchy.to_string()};
    const SimResult pinned = simulate_solo(module, layout, trace, options);
    point.checksum = hash_sim_result(pinned);
    point.amat_cycles = amat(pinned, hierarchy);
    point.events_per_sec = measure_events_per_sec(n, [&] {
      const SimResult r = simulate_solo(module, layout, trace, options);
      benchmark::DoNotOptimize(r);
      if (hash_sim_result(r) != point.checksum) {
        std::fprintf(stderr, "FATAL: %s: icache checksum not deterministic "
                             "under geometry %s\n",
                     spec.name.c_str(), point.geometry.c_str());
        g_checksums_ok = false;
      }
    });
    report.geometry_sweep.push_back(std::move(point));
  }
  return report;
}

void print_report(const WorkloadReport& r, bool json, bool first) {
  if (json) {
    std::printf("%s  {\"workload\": \"%s\", \"events\": %llu,"
                " \"kernels\": [",
                first ? "" : ",\n", r.name.c_str(),
                static_cast<unsigned long long>(r.events));
    for (std::size_t i = 0; i < r.kernels.size(); ++i) {
      const KernelReport& k = r.kernels[i];
      // Checksums as hex strings: 64-bit values do not survive the
      // double-precision number path of most JSON consumers.
      std::printf("%s{\"name\": \"%s\", \"events_per_sec\": %.0f,"
                  " \"checksum\": \"0x%016llx\"",
                  i ? ", " : "", k.name, k.events_per_sec,
                  static_cast<unsigned long long>(k.checksum));
      if (k.baseline_events_per_sec > 0.0) {
        std::printf(", \"baseline_events_per_sec\": %.0f, \"speedup\": %.2f",
                    k.baseline_events_per_sec,
                    k.events_per_sec / k.baseline_events_per_sec);
      }
      std::printf("}");
    }
    std::printf("]");
    if (!r.geometry_sweep.empty()) {
      std::printf(", \"geometry_sweep\": [");
      for (std::size_t i = 0; i < r.geometry_sweep.size(); ++i) {
        const GeometryPoint& g = r.geometry_sweep[i];
        std::printf("%s{\"geometry\": \"%s\", \"events_per_sec\": %.0f,"
                    " \"checksum\": \"0x%016llx\", \"amat\": %.4f}",
                    i ? ", " : "", g.geometry.c_str(), g.events_per_sec,
                    static_cast<unsigned long long>(g.checksum),
                    g.amat_cycles);
      }
      std::printf("]");
    }
    std::printf("}");
    return;
  }
  std::printf("%-18s %10llu events\n", r.name.c_str(),
              static_cast<unsigned long long>(r.events));
  for (const KernelReport& k : r.kernels) {
    std::printf("    %-12s %12.0f events/s  checksum 0x%016llx", k.name,
                k.events_per_sec,
                static_cast<unsigned long long>(k.checksum));
    if (k.baseline_events_per_sec > 0.0) {
      std::printf("   (per-event %12.0f, speedup %5.2fx)",
                  k.baseline_events_per_sec,
                  k.events_per_sec / k.baseline_events_per_sec);
    }
    std::printf("\n");
  }
  for (const GeometryPoint& g : r.geometry_sweep) {
    std::printf("    geometry %-28s %12.0f events/s  checksum 0x%016llx"
                "  amat %.3f\n",
                g.geometry.c_str(), g.events_per_sec,
                static_cast<unsigned long long>(g.checksum), g.amat_cycles);
  }
}

/// "429.mcf,458.sjeng" -> specs.
std::vector<WorkloadSpec> parse_workloads(const std::string& list) {
  std::vector<WorkloadSpec> specs;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string name = list.substr(start, comma - start);
    if (!name.empty()) specs.push_back(find_spec(name));
    start = comma + 1;
  }
  return specs;
}

/// "32K/4/64,16K/2/64+l2=256K/8/64" -> hierarchy specs for the icache
/// kernel's geometry axis.
std::vector<HierarchySpec> parse_geometry_list(const std::string& list) {
  std::vector<HierarchySpec> specs;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string text = list.substr(start, comma - start);
    if (!text.empty()) specs.push_back(parse_hierarchy(text));
    start = comma + 1;
  }
  return specs;
}

int run_suite_mode(const std::string& workload, std::uint64_t max_events,
                   bool json,
                   const std::vector<HierarchySpec>& sweep_geometries) {
  const std::vector<WorkloadSpec> specs =
      workload.empty() ? spec_suite() : parse_workloads(workload);
  if (json) {
    // host_cores gates cross-machine throughput comparison downstream
    // (tools/bench_compare.py refuses to compare throughput across core
    // counts; checksums stay exact everywhere).
    std::printf("{\"bench\": \"analysis_perf\", \"host_cores\": %u,"
                " \"workloads\": [\n",
                std::thread::hardware_concurrency());
  }
  bool first = true;
  for (const WorkloadSpec& spec : specs) {
    print_report(
        measure_workload(spec, max_events, sweep_geometries),
        json, first);
    first = false;
  }
  if (json) std::printf("\n]}\n");
  return g_checksums_ok ? 0 : 5;
}

}  // namespace

int main(int argc, char** argv) {
  bool suite = false;
  bool json = false;
  std::string workload;
  std::uint64_t max_events = ~std::uint64_t{0};
  std::vector<std::string> leftover;
  CliOptions cli(argv[0], "analysis kernel throughput");
  cli.flag("--suite", &suite, "events/s suite mode (implied by the "
                              "flags below); default is google-benchmark");
  cli.flag("--json", &json, "suite mode with the machine-readable report");
  cli.option("--workload", &workload, "A,B,...",
             "suite mode over the named workloads");
  cli.option_u64("--events", &max_events, 1, ~std::uint64_t{0}, "N",
                 "truncate each trace to N events");
  std::string sweep_geometry;
  cli.option("--sweep-geometry", &sweep_geometry, "G1,G2,...",
             "suite mode: run the icache kernel under these hierarchies "
             "(SIZE/ASSOC/LINE[+l2=SIZE/ASSOC/LINE])");
  cli.passthrough(&leftover);  // --benchmark_* flags pass through
  cli.parse_or_exit(argc, argv);
  suite = suite || json || !workload.empty() || !sweep_geometry.empty();
  if (suite) {
    return run_suite_mode(workload, max_events, json,
                          parse_geometry_list(sweep_geometry));
  }

  std::vector<char*> bench_argv{argv[0]};
  for (std::string& arg : leftover) bench_argv.push_back(arg.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
