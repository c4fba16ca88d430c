// Equivalence suite for the flat trace core and its one-pass kernels.
//
// Two layers of evidence that every kernel reproduces the original results:
//   1. Golden checksums (golden_suite.inc) captured from the pre-refactor
//      flat-vector implementation: every kernel's output over the full
//      workload suite, plus end-to-end pipeline outputs, must match bit for
//      bit. The table is regenerated by tests/golden_capture.cpp.
//   2. Reference replays on a spin-heavy workload (long same-symbol runs,
//      which the suite workloads lack): each kernel is compared against a
//      per-event reference implementation written out longhand here, so
//      repeat-heavy traces are covered too.
#include <algorithm>
#include <future>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/icache_sim.hpp"
#include "cache/set_assoc.hpp"
#include "exec/interpreter.hpp"
#include "harness/pipeline.hpp"
#include "helpers.hpp"
#include "layout/layout.hpp"
#include "locality/footprint.hpp"
#include "locality/reuse.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "trace/io.hpp"
#include "trace/prune.hpp"
#include "trg/graph.hpp"
#include "workloads/spec.hpp"

namespace codelayout {
namespace {

using testing::flat_replay;
using testing::hash_footprint;
using testing::hash_reuse;
using testing::hash_sequence;
using testing::hash_sim;
using testing::hash_symbols;
using testing::hash_trg;
using testing::make_trace;

struct GoldenWorkload {
  const char* name;
  std::uint64_t profile_hash;
  std::uint64_t functions_hash;
  std::uint64_t eval_hash;
  std::uint64_t pruned_hash;
  std::uint64_t kept_events;
  std::uint64_t reuse_hash;
  std::uint64_t footprint_hash;
  std::uint64_t trg_hash;
  std::uint64_t solo_sim_hash;
  std::uint64_t solo_hw_hash;
};

struct GoldenPipeline {
  const char* name;
  std::uint64_t sequence_hash[4];
  std::uint64_t sim_hash[4];
};

#include "golden_suite.inc"

// ---- Golden equivalence over the workload suite -----------------------------

TEST(GoldenSuite, KernelOutputsMatchPreRefactorChecksums) {
  const PipelineConfig config;
  ThreadPool pool(ThreadPool::default_threads());
  std::mutex mu;
  std::vector<std::string> failures;
  std::vector<std::future<void>> pending;

  for (const GoldenWorkload& row : kGoldenWorkloads) {
    pending.push_back(pool.submit([&row, &config, &mu, &failures] {
      std::vector<std::string> local;
      const auto check = [&](const char* what, std::uint64_t got,
                             std::uint64_t want) {
        if (got != want) {
          local.push_back(std::string(row.name) + ": " + what +
                          " diverged from the pre-refactor checksum");
        }
      };

      const WorkloadSpec& spec = find_spec(row.name);
      const Module module = build_workload(spec);
      const ProfileResult prof =
          profile(module, config.profile_seed,
                  {.max_events = spec.profile_events, .max_call_depth = 64});
      const Trace functions = project_to_functions(prof.block_trace, module);
      const ProfileResult eval =
          profile(module, config.eval_seed,
                  {.max_events = spec.eval_events, .max_call_depth = 64});
      const PruneResult pruned =
          prune_to_hot(prof.block_trace, config.prune_top_k);

      check("profile trace", hash_symbols(prof.block_trace), row.profile_hash);
      check("function projection", hash_symbols(functions),
            row.functions_hash);
      check("eval trace", hash_symbols(eval.block_trace), row.eval_hash);
      check("pruned trace", hash_symbols(pruned.trace), row.pruned_hash);
      check("kept events", pruned.kept_events, row.kept_events);
      check("reuse profile", hash_reuse(compute_reuse(prof.block_trace)),
            row.reuse_hash);
      check("footprint curve",
            hash_footprint(FootprintCurve::compute(prof.block_trace)),
            row.footprint_hash);
      const std::uint32_t window =
          trg_window_entries(config.trg_cache_bytes, config.trg_block_bytes);
      check("trg",
            hash_trg(Trg::build(pruned.trace,
                                TrgConfig{.window_entries = window})),
            row.trg_hash);
      const CodeLayout original = original_layout(module);
      check("solo sim",
            hash_sim(simulate_solo(module, original, eval.block_trace)),
            row.solo_sim_hash);
      check("solo hw proxy",
            hash_sim(simulate_solo(module, original, eval.block_trace,
                                   hardware_proxy_options())),
            row.solo_hw_hash);

      if (!local.empty()) {
        const std::lock_guard<std::mutex> lock(mu);
        for (std::string& f : local) failures.push_back(std::move(f));
      }
    }));
  }
  for (auto& p : pending) p.get();
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

TEST(GoldenSuite, PipelineOutputsMatchPreRefactorChecksums) {
  ThreadPool pool(ThreadPool::default_threads());
  std::mutex mu;
  std::vector<std::string> failures;
  std::vector<std::future<void>> pending;

  for (const GoldenPipeline& row : kGoldenPipelines) {
    pending.push_back(pool.submit([&row, &mu, &failures] {
      std::vector<std::string> local;
      const PreparedWorkload prepared = prepare_workload(find_spec(row.name));
      for (std::size_t i = 0; i < std::size(kAllOptimizers); ++i) {
        const Optimizer opt = kAllOptimizers[i];
        if (hash_sequence(model_sequence(prepared, opt)) !=
            row.sequence_hash[i]) {
          local.push_back(std::string(row.name) + ": " + opt.name() +
                          " model sequence diverged");
        }
        const CodeLayout layout = optimize_layout(prepared, opt);
        const SimResult sim =
            simulate_solo(prepared.module, layout, prepared.eval_blocks);
        if (hash_sim(sim) != row.sim_hash[i]) {
          local.push_back(std::string(row.name) + ": " + opt.name() +
                          " optimized-layout simulation diverged");
        }
      }
      if (!local.empty()) {
        const std::lock_guard<std::mutex> lock(mu);
        for (std::string& f : local) failures.push_back(std::move(f));
      }
    }));
  }
  for (auto& p : pending) p.get();
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

// ---- A spin-heavy workload: traces with real same-symbol runs ---------------

WorkloadSpec spin_spec() {
  WorkloadSpec spec = find_spec("470.lbm");
  spec.name = "470.lbm+spin";
  spec.spin_prob = 0.5;
  spec.spin_repeat = 24.0;
  return spec;
}

const Module& spin_module() {
  static const Module module = build_workload(spin_spec());
  return module;
}

const Trace& spin_trace() {
  static const Trace trace =
      profile(spin_module(), 101, {.max_events = 60'000, .max_call_depth = 64})
          .block_trace;
  return trace;
}

const CodeLayout& spin_layout() {
  static const CodeLayout layout = original_layout(spin_module());
  return layout;
}

/// First `n` events of `t`, untrimmed (unlike sample_windows). Caps the
/// quadratic reference replays.
Trace prefix_events(const Trace& t, std::size_t n) {
  Trace out(t.granularity());
  for (const Symbol s : t.symbols().first(std::min(n, t.size()))) {
    out.push_symbol(s);
  }
  return out;
}

TEST(SpinWorkload, ProducesCompressibleRuns) {
  const Trace& t = spin_trace();
  EXPECT_GT(t.size(), 2 * t.run_count())
      << "spin knob failed to produce same-block runs";
  EXPECT_FALSE(t.is_trimmed());
}

TEST(SpinWorkload, FlatReplayRebuildsIdenticalTrace) {
  const Trace& t = spin_trace();
  const Trace replayed = flat_replay(t);
  EXPECT_EQ(replayed, t);
  EXPECT_EQ(hash_symbols(replayed), hash_symbols(t));
  EXPECT_EQ(replayed.run_count(), t.run_count());
}

// Per-event reuse reference: a literal Mattson LRU stack (O(N*D)).
TEST(SpinWorkload, ReuseMatchesPerEventStackReference) {
  const Trace t = prefix_events(spin_trace(), 20'000);
  ASSERT_FALSE(t.is_trimmed());  // the cap must not destroy the runs
  std::vector<std::uint64_t> ref_dist, ref_time, ref_per_access;
  std::uint64_t ref_cold = 0;
  std::vector<Symbol> stack;  // front = most recently used
  std::vector<std::int64_t> last(t.symbol_space(), -1);
  const auto symbols = t.symbols();
  const auto bump = [](std::vector<std::uint64_t>& h, std::uint64_t i) {
    if (h.size() <= i) h.resize(i + 1, 0);
    ++h[i];
  };
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const Symbol s = symbols[i];
    const auto it = std::find(stack.begin(), stack.end(), s);
    if (it == stack.end()) {
      ++ref_cold;
      ref_per_access.push_back(kColdReuse);
    } else {
      const auto depth = static_cast<std::uint64_t>(it - stack.begin());
      bump(ref_dist, depth);
      bump(ref_time, i - static_cast<std::uint64_t>(last[s]));
      ref_per_access.push_back(depth);
      stack.erase(it);
    }
    stack.insert(stack.begin(), s);
    last[s] = static_cast<std::int64_t>(i);
  }

  const ReuseProfile got = compute_reuse(t);
  EXPECT_EQ(got.cold_accesses, ref_cold);
  EXPECT_EQ(got.total_accesses, t.size());
  EXPECT_EQ(got.distance_histogram, ref_dist);
  EXPECT_EQ(got.time_histogram, ref_time);
  EXPECT_EQ(per_access_reuse_distances(t), ref_per_access);
}

TEST(SpinWorkload, FootprintMatchesPerWindowReference) {
  const Trace t = prefix_events(spin_trace(), 2'500);  // bounds the O(N^2)
  ASSERT_FALSE(t.is_trimmed());
  const auto symbols = t.symbols();
  const std::size_t n = symbols.size();
  const FootprintCurve curve = FootprintCurve::compute(t);
  ASSERT_EQ(curve.trace_length(), n);
  const std::vector<double> fp = curve.values();

  // Exact sliding-window distinct counts at sampled window lengths.
  std::vector<std::uint32_t> counts(t.symbol_space(), 0);
  for (std::size_t w = 1; w <= n; w += 97) {
    std::fill(counts.begin(), counts.end(), 0);
    std::size_t distinct = 0;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (counts[symbols[i]]++ == 0) ++distinct;
      if (i >= w && --counts[symbols[i - w]] == 0) --distinct;
      if (i + 1 >= w) sum += distinct;
    }
    const double expected =
        static_cast<double>(sum) / static_cast<double>(n - w + 1);
    EXPECT_NEAR(fp[w], expected, 1e-9 * expected + 1e-12)
        << "fp(" << w << ")";
  }
}

/// The pre-refactor per-event fetch loop, written out longhand: replays the
/// flat event sequence one block at a time with the same RNG stream the
/// simulator forks for the solo stream.
SimResult reference_solo(const Module& module, const CodeLayout& layout,
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
      const std::uint64_t line = span.first_line + span.line_count;
      if (!cache.access(line)) ++stats.wrong_path_misses;
    }
  }
  return stats;
}

void expect_sim_equal(const SimResult& got, const SimResult& want) {
  EXPECT_EQ(got.blocks, want.blocks);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.overhead_instructions, want.overhead_instructions);
  EXPECT_EQ(got.line_probes, want.line_probes);
  EXPECT_EQ(got.demand_misses, want.demand_misses);
  EXPECT_EQ(got.wrong_path_misses, want.wrong_path_misses);
}

TEST(SpinWorkload, IcacheSoloMatchesPerEventReplay) {
  const Module& m = spin_module();
  const CodeLayout& layout = spin_layout();
  const Trace& t = spin_trace();
  expect_sim_equal(simulate_solo(m, layout, t),
                   reference_solo(m, layout, t, SimOptions{}));
}

TEST(SpinWorkload, IcacheHardwareProxyMatchesPerEventReplay) {
  // Wrong-path fetches draw the RNG once per branchy event; the whole draw
  // stream must line up with per-event replay.
  const Module& m = spin_module();
  const CodeLayout& layout = spin_layout();
  const Trace& t = spin_trace();
  const SimOptions hw = hardware_proxy_options();
  expect_sim_equal(simulate_solo(m, layout, t, hw),
                   reference_solo(m, layout, t, hw));
}

TEST(SpinWorkload, IcacheDegenerateGeometryMatchesPerEventReplay) {
  // A 2-set cache is narrower than multi-line blocks, so a block's own
  // lines conflict with each other; the replay must agree with the
  // reference there too.
  const Module& m = spin_module();
  const CodeLayout& layout = spin_layout();
  const Trace t = prefix_events(spin_trace(), 5'000);
  SimOptions tiny = hardware_proxy_options();
  tiny.hierarchy.l1.size_bytes = std::uint64_t{2} *
                                 tiny.hierarchy.l1.associativity *
                                 tiny.hierarchy.l1.line_bytes;
  tiny.hierarchy.l1.validate();
  ASSERT_EQ(tiny.hierarchy.l1.sets(), 2u);
  expect_sim_equal(simulate_solo(m, layout, t, tiny),
                   reference_solo(m, layout, t, tiny));
}

TEST(SpinWorkload, LineTraceMatchesPerEventExpansion) {
  const CodeLayout& layout = spin_layout();
  const Trace& t = spin_trace();
  constexpr std::uint32_t kLineBytes = 64;
  Trace ref(Trace::Granularity::kBlock);
  for (const Symbol sym : t.symbols()) {
    const auto span = layout.lines_of(BlockId(sym), kLineBytes);
    for (std::uint32_t l = 0; l < span.line_count; ++l) {
      ref.push_symbol(static_cast<Symbol>(span.first_line + l));
    }
  }
  EXPECT_EQ(line_trace(spin_module(), layout, t, kLineBytes), ref.trimmed());
}

TEST(SpinWorkload, TrgOnRunsMatchesTrimmedBuild) {
  const Trace& t = spin_trace();
  const TrgConfig config{.window_entries = trg_window_entries(32'768, 64)};
  EXPECT_EQ(hash_trg(Trg::build(t, config)),
            hash_trg(Trg::build(t.trimmed(), config)));
}

TEST(SpinWorkload, ProjectionMatchesPerEventReference) {
  const Module& m = spin_module();
  const Trace& t = spin_trace();
  Trace ref(Trace::Granularity::kFunction);
  FuncId last;
  for (const Symbol sym : t.symbols()) {
    const FuncId f = m.block(BlockId(sym)).parent;
    if (f != last) {
      ref.push(f);
      last = f;
    }
  }
  EXPECT_EQ(project_to_functions(t, m), ref);
}

TEST(SpinWorkload, PruneMatchesPerEventReference) {
  const Trace& t = spin_trace();
  const PruneResult got = prune_to_hot(t, 64);

  const auto counts = t.occurrence_counts();
  std::vector<Symbol> order;
  for (Symbol s = 0; s < counts.size(); ++s) {
    if (counts[s] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](Symbol a, Symbol b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    return a < b;
  });
  if (order.size() > 64) order.resize(64);
  Trace ref(Trace::Granularity::kBlock);
  std::uint64_t kept = 0;
  for (const Symbol s : t.symbols()) {
    if (std::find(order.begin(), order.end(), s) != order.end()) {
      ref.push_symbol(s);
      ++kept;
    }
  }
  EXPECT_EQ(got.hot_set, order);
  EXPECT_EQ(got.kept_events, kept);
  EXPECT_EQ(got.total_events, t.size());
  EXPECT_EQ(got.trace, ref.trimmed());
}

TEST(SpinWorkload, SampleWindowsMatchesPerEventReference) {
  const Trace& t = spin_trace();
  for (const auto& [window, stride] :
       {std::pair<std::size_t, std::size_t>{128, 128},
        {128, 1'000},
        {777, 1'000},
        {t.size() + 5, t.size() + 5}}) {
    Trace ref(Trace::Granularity::kBlock);
    const auto symbols = t.symbols();
    for (std::size_t start = 0; start < symbols.size(); start += stride) {
      const std::size_t end = std::min(start + window, symbols.size());
      for (std::size_t i = start; i < end; ++i) ref.push_symbol(symbols[i]);
    }
    EXPECT_EQ(sample_windows(t, window, stride), ref.trimmed())
        << "window=" << window << " stride=" << stride;
  }
}

TEST(SpinWorkload, IoRoundtripPreservesRuns) {
  const Trace& t = spin_trace();
  const Trace back = decode_trace(encode_trace(t));
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.run_count(), t.run_count());
}

// ---- Trace-core edge cases the refactor must preserve -----------------------

TEST(RunCore, EmptyTrace) {
  const Trace t(Trace::Granularity::kBlock);
  EXPECT_EQ(t.run_count(), 0u);
  EXPECT_TRUE(t.symbols().empty());
  EXPECT_EQ(compute_reuse(t).total_accesses, 0u);
  EXPECT_EQ(FootprintCurve::compute(t).trace_length(), 0u);
  EXPECT_EQ(Trg::build(t, TrgConfig{.window_entries = 16}).node_count(), 0u);
  EXPECT_EQ(decode_trace(encode_trace(t)), t);
}

TEST(RunCore, SingleSymbolTrace) {
  Trace t(Trace::Granularity::kBlock);
  t.push_run(7, 1'000);
  EXPECT_EQ(t.size(), 1'000u);
  EXPECT_EQ(t.run_count(), 1u);
  EXPECT_EQ(t.distinct_count(), 1u);
  EXPECT_EQ(t.trimmed(), make_trace({7}));

  const ReuseProfile reuse = compute_reuse(t);
  EXPECT_EQ(reuse.cold_accesses, 1u);
  ASSERT_EQ(reuse.distance_histogram.size(), 1u);
  EXPECT_EQ(reuse.distance_histogram[0], 999u);
  ASSERT_EQ(reuse.time_histogram.size(), 2u);
  EXPECT_EQ(reuse.time_histogram[1], 999u);

  const FootprintCurve fp = FootprintCurve::compute(t);
  EXPECT_DOUBLE_EQ(fp.values()[1], 1.0);
  EXPECT_DOUBLE_EQ(fp.max_footprint(), 1.0);
}

TEST(RunCore, PruneTopKZeroThrows) {
  const Trace t = make_trace({1, 2, 3});
  EXPECT_THROW(prune_to_hot(t, 0), ContractError);
}

TEST(RunCore, SampleWindowLongerThanTraceKeepsWholeTrace) {
  const Trace t = make_trace({1, 1, 2, 3, 3});
  EXPECT_EQ(sample_windows(t, 100, 100), t.trimmed());
}

}  // namespace
}  // namespace codelayout
