#include "trace/prune.hpp"

#include <algorithm>

namespace codelayout {

PruneResult prune_to_hot(const Trace& trace, std::size_t top_k) {
  CL_CHECK(top_k > 0);
  const auto counts = trace.occurrence_counts();

  std::vector<Symbol> order;
  order.reserve(counts.size());
  for (Symbol s = 0; s < counts.size(); ++s) {
    if (counts[s] > 0) order.push_back(s);
  }
  std::sort(order.begin(), order.end(), [&](Symbol a, Symbol b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    return a < b;
  });
  if (order.size() > top_k) order.resize(top_k);

  std::vector<std::uint8_t> hot(counts.size(), 0);
  for (const Symbol s : order) hot[s] = 1;

  PruneResult result{.trace = Trace(trace.granularity()),
                     .hot_set = std::move(order),
                     .kept_events = 0,
                     .total_events = trace.size()};
  result.trace.reserve(trace.size());
  for (const Symbol s : trace.symbols()) {
    // Dropping cold events can leave equal hot symbols adjacent; they
    // collapse here, exactly as re-trimming would collapse them.
    if (hot[s] == 0) continue;
    ++result.kept_events;
    if (result.trace.empty() || result.trace.symbols().back() != s) {
      result.trace.push_symbol(s);
    }
  }
  return result;
}

Trace sample_windows(const Trace& trace, std::size_t window_len,
                     std::size_t stride) {
  CL_CHECK(window_len > 0);
  CL_CHECK(stride >= window_len);
  Trace out(trace.granularity());
  const std::span<const Symbol> symbols = trace.symbols();
  for (std::size_t start = 0; start < symbols.size(); start += stride) {
    const std::size_t end = std::min(start + window_len, symbols.size());
    for (std::size_t i = start; i < end; ++i) out.push_symbol(symbols[i]);
  }
  return out.trimmed();
}

}  // namespace codelayout
