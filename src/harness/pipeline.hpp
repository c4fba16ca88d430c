// End-to-end optimization pipeline (paper Sec. II-F "System Implementation").
//
// For a workload: build the module, run the test input to profile a trace,
// prune it to the hot set, feed one of the two locality models at one of the
// two granularities, and apply the matching transformation — yielding the
// four optimizers of the paper (function/BB x affinity/TRG). Evaluation
// replays a longer "reference input" trace against the produced layout.
#pragma once

#include <cstdint>
#include <string>

#include "affinity/analysis.hpp"
#include "exec/interpreter.hpp"
#include "layout/layout.hpp"
#include "trace/prune.hpp"
#include "workloads/spec.hpp"

namespace codelayout {

class ThreadPool;

enum class ModelKind { kAffinity, kTrg };
enum class Granularity { kFunction, kBlock };

struct Optimizer {
  ModelKind model;
  Granularity granularity;

  [[nodiscard]] std::string name() const;
  friend bool operator==(Optimizer, Optimizer) = default;
  friend auto operator<=>(Optimizer, Optimizer) = default;
};

inline constexpr Optimizer kFuncAffinity{ModelKind::kAffinity,
                                         Granularity::kFunction};
inline constexpr Optimizer kBBAffinity{ModelKind::kAffinity,
                                       Granularity::kBlock};
inline constexpr Optimizer kFuncTrg{ModelKind::kTrg, Granularity::kFunction};
inline constexpr Optimizer kBBTrg{ModelKind::kTrg, Granularity::kBlock};

/// All four, in the paper's reporting order.
inline constexpr Optimizer kAllOptimizers[] = {kFuncAffinity, kBBAffinity,
                                               kFuncTrg, kBBTrg};

struct PipelineConfig {
  /// Trace pruning: keep the top-K most frequent blocks (Sec. II-F). The
  /// paper keeps 10,000 at SPEC scale (hundreds of thousands of static
  /// blocks); our workloads are ~20x smaller, so the proportional budget
  /// still "keeps over 90% of the original trace" while cutting the
  /// once-executed cold tail out of the layout's hot section.
  std::size_t prune_top_k = 4'000;
  AffinityConfig affinity;
  /// TRG window/slots derive from the cache size and the uniform-size
  /// assumption (Sec. II-C): the window examines 2C bytes of footprint.
  std::uint64_t trg_cache_bytes = 32 * 1024;
  std::uint32_t trg_block_bytes = 64;    ///< assumed basic-block size
  std::uint32_t trg_function_bytes = 512;  ///< assumed function size
  std::uint64_t profile_seed = 101;  ///< "test" input
  std::uint64_t eval_seed = 707;     ///< "reference" input
  /// Optional shared worker pool for the analysis kernels: fans the affinity
  /// w-grid and the TRG build shards out while the calling thread
  /// participates. Non-owning; nullptr = serial. Model outputs are
  /// bit-identical either way (the parallel decompositions are exact).
  ThreadPool* analysis_pool = nullptr;
  /// Carries nothing (see AnalysisDispatch in trace/trace.hpp).
  AnalysisDispatch dispatch{};
};

struct PreparedWorkload {
  WorkloadSpec spec;
  Module module;
  /// Pruned + trimmed profile traces feeding the models.
  Trace profile_blocks{Trace::Granularity::kBlock};
  Trace profile_functions{Trace::Granularity::kFunction};
  double prune_kept_fraction = 1.0;
  /// Reference-input trace for evaluation (unpruned).
  Trace eval_blocks{Trace::Granularity::kBlock};
  std::uint64_t eval_instructions = 0;
  CodeLayout original;
};

/// Runs the profiling front half of the pipeline.
PreparedWorkload prepare_workload(const WorkloadSpec& spec,
                                  const PipelineConfig& config = {});

/// Runs one locality model and returns the reordered symbol sequence
/// (FuncId values for function granularity, BlockId values for block).
std::vector<Symbol> model_sequence(const PreparedWorkload& prepared,
                                   Optimizer optimizer,
                                   const PipelineConfig& config = {});

/// Model + transformation: the optimized layout.
CodeLayout optimize_layout(const PreparedWorkload& prepared,
                           Optimizer optimizer,
                           const PipelineConfig& config = {});

}  // namespace codelayout
