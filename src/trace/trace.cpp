#include "trace/trace.hpp"

#include <algorithm>
#include <unordered_set>

#include "ir/module.hpp"

namespace codelayout {

std::size_t Trace::run_count() const {
  std::size_t runs = 0;
  for_each_run([&](Symbol, std::uint64_t) { ++runs; });
  return runs;
}

Trace Trace::trimmed() const {
  Trace out(granularity_);
  out.symbols_.reserve(symbols_.size());
  for (const Symbol s : symbols_) {
    if (out.symbols_.empty() || out.symbols_.back() != s) {
      out.symbols_.push_back(s);
    }
  }
  return out;
}

bool Trace::is_trimmed() const {
  return std::adjacent_find(symbols_.begin(), symbols_.end()) ==
         symbols_.end();
}

std::size_t Trace::distinct_count() const {
  std::unordered_set<Symbol> seen(symbols_.begin(), symbols_.end());
  return seen.size();
}

Symbol Trace::symbol_space() const {
  Symbol max = 0;
  for (const Symbol s : symbols_) max = std::max(max, s + 1);
  return max;
}

std::vector<std::uint64_t> Trace::occurrence_counts() const {
  std::vector<std::uint64_t> counts(symbol_space(), 0);
  for (const Symbol s : symbols_) ++counts[s];
  return counts;
}

Trace project_to_functions(const Trace& block_trace, const Module& module) {
  CL_CHECK(block_trace.is_block());
  Trace out(Trace::Granularity::kFunction);
  out.reserve(block_trace.size() / 4);
  FuncId last;
  for (const Symbol s : block_trace.symbols()) {
    const FuncId f = module.block(BlockId(s)).parent;
    if (!(f == last)) {
      out.push(f);
      last = f;
    }
  }
  return out;
}

}  // namespace codelayout
