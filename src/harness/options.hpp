// Validated, builder-style configuration for the Lab.
//
// Options chain fluently, and Lab's constructor rejects nonsensical configs
// (zero pruning budget, zero TRG cache bytes, an empty affinity grid, ...)
// with a ContractError naming every problem, instead of silently producing
// degenerate layouts. Every Lab runs the default PerfParams.
#pragma once

#include "harness/pipeline.hpp"
#include "perfmodel/perfmodel.hpp"

namespace codelayout {

class LabOptions {
 public:
  LabOptions& pipeline(PipelineConfig config) {
    pipeline_ = std::move(config);
    return *this;
  }
  /// Worker threads for the evaluation engine; 0 (the default) resolves to
  /// one per hardware thread.
  LabOptions& threads(unsigned count) {
    threads_ = count;
    return *this;
  }

  [[nodiscard]] const PipelineConfig& pipeline() const { return pipeline_; }
  [[nodiscard]] const PerfParams& perf() const { return kPerf; }
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// The worker count after resolving 0 = hardware concurrency.
  [[nodiscard]] unsigned resolved_threads() const;

  /// Throws ContractError listing every invalid setting.
  void validate() const;

 private:
  PipelineConfig pipeline_{};
  static constexpr PerfParams kPerf{};
  unsigned threads_ = 0;
};

}  // namespace codelayout
