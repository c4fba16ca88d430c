#include "harness/options.hpp"

#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace codelayout {

unsigned LabOptions::resolved_threads() const {
  return threads_ == 0 ? ThreadPool::default_threads() : threads_;
}

void LabOptions::validate() const {
  std::vector<std::string> problems;

  if (pipeline_.prune_top_k == 0) {
    problems.push_back(
        "prune_top_k must be positive (0 would prune away the whole trace)");
  }
  if (pipeline_.trg_cache_bytes == 0) {
    problems.push_back("trg_cache_bytes must be positive");
  }
  if (pipeline_.trg_cache_bytes > 0 &&
      pipeline_.trg_block_bytes > pipeline_.trg_cache_bytes) {
    problems.push_back(
        "trg_block_bytes exceeds trg_cache_bytes: the TRG window would "
        "examine less than one block");
  }
  if (!pipeline_.affinity.valid()) {
    problems.push_back(
        "affinity w_values must be a non-empty ascending grid of values >= 2");
  }

  if (problems.empty()) return;
  std::string message = "invalid LabOptions:";
  for (const std::string& p : problems) {
    message += "\n  - ";
    message += p;
  }
  throw ContractError(message);
}

}  // namespace codelayout
