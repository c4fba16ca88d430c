#include "harness/pipeline.hpp"

#include "affinity/analysis.hpp"
#include "support/trace_recorder.hpp"
#include "trg/graph.hpp"
#include "trg/reduction.hpp"

namespace codelayout {

std::string Optimizer::name() const {
  std::string out =
      granularity == Granularity::kFunction ? "Function " : "BB ";
  out += model == ModelKind::kAffinity ? "Affinity" : "TRG";
  return out;
}

PreparedWorkload prepare_workload(const WorkloadSpec& spec,
                                  const PipelineConfig& config) {
  Module module = build_workload(spec);

  // Profiling run ("test input"), then pruning per Sec. II-F.
  ExecLimits profile_limits{.max_events = spec.profile_events,
                            .max_call_depth = 64};
  ProfileResult profile = [&] {
    CODELAYOUT_PHASE("profile", "pipeline", "pipeline.profile.wall_ns",
                     {"workload", spec.name});
    return codelayout::profile(module, config.profile_seed, profile_limits);
  }();
  PruneResult pruned = [&] {
    CODELAYOUT_PHASE("prune", "pipeline", "pipeline.prune.wall_ns",
                     {"workload", spec.name});
    return prune_to_hot(profile.block_trace, config.prune_top_k);
  }();

  // The function trace is projected from the *unpruned* block trace, then
  // pruned to the same budget in function space.
  Trace functions = [&] {
    CODELAYOUT_PHASE("project_functions", "pipeline",
                     "pipeline.project_functions.wall_ns",
                     {"workload", spec.name});
    return project_to_functions(profile.block_trace, module);
  }();
  PruneResult pruned_funcs = prune_to_hot(functions, config.prune_top_k);

  // Evaluation run ("reference input"): different seed, longer.
  ExecLimits eval_limits{.max_events = spec.eval_events, .max_call_depth = 64};
  ProfileResult eval = [&] {
    CODELAYOUT_PHASE("eval_profile", "pipeline",
                     "pipeline.eval_profile.wall_ns",
                     {"workload", spec.name});
    return codelayout::profile(module, config.eval_seed, eval_limits);
  }();

  CodeLayout original = original_layout(module);
  return PreparedWorkload{.spec = spec,
                          .module = std::move(module),
                          .profile_blocks = std::move(pruned.trace),
                          .profile_functions = std::move(pruned_funcs.trace),
                          .prune_kept_fraction = pruned.kept_fraction(),
                          .eval_blocks = std::move(eval.block_trace),
                          .eval_instructions = eval.dynamic_instructions,
                          .original = std::move(original)};
}

std::vector<Symbol> model_sequence(const PreparedWorkload& prepared,
                                   Optimizer optimizer,
                                   const PipelineConfig& config) {
  const Trace& trace = optimizer.granularity == Granularity::kFunction
                           ? prepared.profile_functions
                           : prepared.profile_blocks;
  if (optimizer.model == ModelKind::kAffinity) {
    CODELAYOUT_PHASE("affinity_build", "pipeline",
                     "pipeline.affinity_build.wall_ns",
                     {"granularity", optimizer.granularity ==
                                             Granularity::kFunction
                                         ? "function"
                                         : "block"});
    return analyze_affinity(trace, config.affinity).layout_order();
  }
  const std::uint32_t assumed_bytes =
      optimizer.granularity == Granularity::kFunction
          ? config.trg_function_bytes
          : config.trg_block_bytes;
  const TrgConfig trg_config{
      .window_entries = trg_window_entries(config.trg_cache_bytes,
                                           assumed_bytes)};
  const Trg graph = [&] {
    CODELAYOUT_PHASE("trg_build", "pipeline", "pipeline.trg_build.wall_ns",
                     {"window", trg_config.window_entries});
    return Trg::build(trace, trg_config);
  }();
  const std::uint32_t slots =
      trg_slot_count(config.trg_cache_bytes, /*assoc=*/4, /*line_bytes=*/64,
                     assumed_bytes);
  CODELAYOUT_PHASE("trg_reduce", "pipeline", "pipeline.trg_reduce.wall_ns",
                   {"slots", slots});
  return reduce_trg(graph, slots).order;
}

CodeLayout optimize_layout(const PreparedWorkload& prepared,
                           Optimizer optimizer,
                           const PipelineConfig& config) {
  const std::vector<Symbol> sequence =
      model_sequence(prepared, optimizer, config);
  if (optimizer.granularity == Granularity::kFunction) {
    return function_reordering(prepared.module, sequence);
  }
  return bb_reordering(prepared.module, sequence);
}

}  // namespace codelayout
