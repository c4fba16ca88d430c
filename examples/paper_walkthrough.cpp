// Example: the paper's three worked examples, executed live.
//
//   Figure 1 — the w-window affinity hierarchy of B1 B4 B2 B4 B2 B3 B5 B1 B4
//   Figure 2 — TRG reduction over three code slots -> sequence A B E F C
//   Figure 3 — inter-procedural BB reordering of the correlated X/Y program
#include <cstdio>

#include "affinity/analysis.hpp"
#include "affinity/naive.hpp"
#include "ir/builder.hpp"
#include "layout/layout.hpp"
#include "trg/reduction.hpp"

using namespace codelayout;

namespace {

void figure1() {
  std::printf("=== Figure 1: hierarchical w-window affinity ===\n");
  Trace trace(Trace::Granularity::kBlock);
  for (Symbol s : {1, 4, 2, 4, 2, 3, 5, 1, 4}) {
    trace.push_symbol(s);
  }
  std::printf("trace: B1 B4 B2 B4 B2 B3 B5 B1 B4\n\n");

  const AffinityHierarchy h =
      analyze_affinity(trace, AffinityConfig{.w_values = {2, 3, 4, 5}});
  for (std::uint32_t w = 1; w <= 5; ++w) {
    std::printf("w=%u partition: ", w);
    for (std::uint32_t id : h.partition_at(w)) {
      std::printf("(");
      const auto& members = h.node(id).members;
      for (std::size_t i = 0; i < members.size(); ++i) {
        std::printf("%sB%u", i ? "," : "", members[i]);
      }
      std::printf(") ");
    }
    std::printf("\n");
  }
  std::printf("output sequence: ");
  for (Symbol s : h.layout_order()) std::printf("B%u ", s);
  std::printf("  (paper: B1 B4 B2 B3 B5)\n\n");
}

void figure2() {
  std::printf("=== Figure 2: TRG reduction over 3 code slots ===\n");
  // The Fig. 2 instance (A=0 B=1 C=2 E=3 F=4).
  const std::vector<Trg::Edge> edges = {{0, 1, 40}, {3, 4, 35}, {2, 0, 30},
                                        {1, 4, 15}, {2, 1, 12}, {2, 3, 10},
                                        {0, 4, 10}};
  const TrgReduction r = reduce_trg(Trg::from_edges({}, edges), 3);
  const char* names = "ABCEF";
  for (std::size_t k = 0; k < r.slots.size(); ++k) {
    std::printf("code slot %zu:", k + 1);
    for (Symbol s : r.slots[k]) std::printf(" %c", names[s]);
    std::printf("\n");
  }
  std::printf("output sequence: ");
  for (Symbol s : r.order) std::printf("%c ", names[s]);
  std::printf("  (paper: A B E F C)\n\n");
}

void figure3() {
  std::printf("=== Figure 3: inter-procedural BB reordering ===\n");
  ModuleBuilder mb("fig3");
  auto x = mb.function("X");
  const BlockId x1 = x.block(16, "X1");
  const BlockId x2 = x.block(16, "X2");
  const BlockId x3 = x.block(16, "X3");
  x.branch(x1, x3, x2, 0.5);
  auto y = mb.function("Y");
  const BlockId y1 = y.block(16, "Y1");
  const BlockId y2 = y.block(16, "Y2");
  const BlockId y3 = y.block(16, "Y3");
  y.branch(y1, y3, y2, 0.5);
  auto main_fn = mb.function("main");
  const BlockId loop = main_fn.block(16, "loop");
  const BlockId done = main_fn.block(16, "done");
  main_fn.call(loop, x.id());
  main_fn.call(loop, y.id());
  main_fn.loop(loop, loop, done, 0.99);
  Module m = std::move(mb).build();
  m.set_entry_function(*m.find_function("main"));

  // The global variable b correlates the two branches; emulate the
  // correlated trace the paper's loop produces.
  Trace trace(Trace::Granularity::kBlock);
  for (int i = 0; i < 100; ++i) {
    trace.push(loop);
    trace.push(x1);
    trace.push(i % 2 ? x2 : x3);
    trace.push(y1);
    trace.push(i % 2 ? y2 : y3);
  }

  const auto order = analyze_affinity(trace).layout_order();
  const CodeLayout opt = bb_reordering(m, order);
  std::printf("optimized layout (X2,Y2 and X3,Y3 extracted together):\n%s",
              opt.describe(m, 8).c_str());
  std::printf("added jumps: %u fix-ups + %zu entry trampolines = %llu bytes\n\n",
              opt.fixup_count(), m.function_count(),
              static_cast<unsigned long long>(opt.overhead_bytes()));
}

}  // namespace

int main() {
  figure1();
  figure2();
  figure3();
  return 0;
}
