// Regenerates tests/golden_suite.inc — the golden checksums the equivalence
// suite (trace_runs_test) compares against.
//
// The table currently checked in was captured from the original flat-vector
// Trace implementation, so the golden test proves the kernels reproduce the
// original outputs bit for bit. Only regenerate this table when an intentional behaviour change
// lands (and say so in the commit): `./tests/golden_capture >
// tests/golden_suite.inc`.
#include <cstdio>

#include "cache/icache_sim.hpp"
#include "exec/interpreter.hpp"
#include "harness/pipeline.hpp"
#include "helpers.hpp"
#include "layout/layout.hpp"
#include "locality/footprint.hpp"
#include "locality/reuse.hpp"
#include "trace/prune.hpp"
#include "trg/graph.hpp"
#include "workloads/spec.hpp"

namespace {

using namespace codelayout;
using namespace codelayout::testing;

/// The three pipeline-golden workloads: small, mid, and the busiest probe.
const char* kPipelineWorkloads[] = {"429.mcf", "458.sjeng", "403.gcc"};

void emit_workload_rows() {
  const PipelineConfig config;
  std::printf("inline constexpr GoldenWorkload kGoldenWorkloads[] = {\n");
  for (const WorkloadSpec& spec : spec_suite()) {
    const Module module = build_workload(spec);
    const ExecLimits profile_limits{.max_events = spec.profile_events,
                                    .max_call_depth = 64};
    const ProfileResult prof =
        profile(module, config.profile_seed, profile_limits);
    const Trace functions = project_to_functions(prof.block_trace, module);
    const ExecLimits eval_limits{.max_events = spec.eval_events,
                                 .max_call_depth = 64};
    const ProfileResult eval =
        profile(module, config.eval_seed, eval_limits);
    const PruneResult pruned =
        prune_to_hot(prof.block_trace, config.prune_top_k);

    const ReuseProfile reuse = compute_reuse(prof.block_trace);
    const FootprintCurve fp = FootprintCurve::compute(prof.block_trace);
    const Trg trg = Trg::build(
        pruned.trace,
        TrgConfig{.window_entries =
                      trg_window_entries(config.trg_cache_bytes,
                                         config.trg_block_bytes)});
    const CodeLayout original = original_layout(module);
    const SimResult solo_sim =
        simulate_solo(module, original, eval.block_trace);
    const SimResult solo_hw = simulate_solo(module, original, eval.block_trace,
                                            hardware_proxy_options());

    std::printf(
        "    {\"%s\",\n"
        "     0x%016llxull, 0x%016llxull, 0x%016llxull,\n"
        "     0x%016llxull, %lluull,\n"
        "     0x%016llxull, 0x%016llxull, 0x%016llxull,\n"
        "     0x%016llxull, 0x%016llxull},\n",
        spec.name.c_str(),
        static_cast<unsigned long long>(hash_symbols(prof.block_trace)),
        static_cast<unsigned long long>(hash_symbols(functions)),
        static_cast<unsigned long long>(hash_symbols(eval.block_trace)),
        static_cast<unsigned long long>(hash_symbols(pruned.trace)),
        static_cast<unsigned long long>(pruned.kept_events),
        static_cast<unsigned long long>(hash_reuse(reuse)),
        static_cast<unsigned long long>(hash_footprint(fp)),
        static_cast<unsigned long long>(hash_trg(trg)),
        static_cast<unsigned long long>(hash_sim(solo_sim)),
        static_cast<unsigned long long>(hash_sim(solo_hw)));
  }
  std::printf("};\n\n");
}

void emit_pipeline_rows() {
  std::printf("inline constexpr GoldenPipeline kGoldenPipelines[] = {\n");
  for (const char* name : kPipelineWorkloads) {
    const PreparedWorkload prepared = prepare_workload(find_spec(name));
    std::printf("    {\"%s\",\n     {", name);
    for (const Optimizer opt : kAllOptimizers) {
      std::printf("0x%016llxull, ",
                  static_cast<unsigned long long>(
                      hash_sequence(model_sequence(prepared, opt))));
    }
    std::printf("},\n     {");
    for (const Optimizer opt : kAllOptimizers) {
      const CodeLayout layout = optimize_layout(prepared, opt);
      const SimResult sim =
          simulate_solo(prepared.module, layout, prepared.eval_blocks);
      std::printf("0x%016llxull, ",
                  static_cast<unsigned long long>(hash_sim(sim)));
    }
    std::printf("}},\n");
  }
  std::printf("};\n");
}

}  // namespace

int main() {
  std::printf(
      "// Golden checksums captured from the pre-refactor (flat-vector Trace)\n"
      "// implementation. Regenerate only on intentional behaviour changes:\n"
      "//   ./tests/golden_capture > tests/golden_suite.inc\n"
      "// See tests/golden_capture.cpp.\n\n");
  emit_workload_rows();
  emit_pipeline_rows();
  return 0;
}
