// Example: explore every layout strategy on one suite workload — the four
// paper optimizers, the Gloy-Smith padded placement, and a random worst
// case — solo and under a gamess co-run.
//
// Usage: layout_explorer [workload]   (default 458.sjeng)
#include <cstdio>
#include <optional>

#include "harness/lab.hpp"
#include "support/format.hpp"
#include "trg/placement.hpp"
#include "workloads/spec.hpp"

using namespace codelayout;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "458.sjeng";
  Lab lab;
  const PreparedWorkload& w = lab.workload(name);

  std::printf("Layout explorer: %s (%zu functions, %zu blocks, %s)\n\n",
              name.c_str(), w.module.function_count(), w.module.block_count(),
              fmt_bytes(w.module.static_bytes()).c_str());

  TextTable table({"layout", "bytes", "overhead", "solo miss",
                   "co-run miss (gamess)"});
  auto evaluate = [&](const std::string& label, const CodeLayout& layout) {
    const SimResult solo = simulate_solo(w.module, layout, w.eval_blocks,
                                         hardware_proxy_options());
    const PreparedWorkload& peer = lab.workload(kProbe2);
    const CorunResult corun = simulate_corun(
        w.module, layout, w.eval_blocks, peer.module,
        lab.layout(kProbe2, std::nullopt), peer.eval_blocks,
        hardware_proxy_options());
    table.add_row({label, fmt_bytes(layout.total_bytes()),
                   fmt_bytes(layout.overhead_bytes()),
                   fmt_pct(solo.miss_ratio()),
                   fmt_pct(corun.self.miss_ratio())});
  };

  evaluate("original", w.original);
  for (const Optimizer opt : kAllOptimizers) {
    if (opt.granularity == Granularity::kBlock &&
        !Lab::bb_reordering_supported(name)) {
      continue;
    }
    evaluate(opt.name(), lab.layout(name, opt));
  }
  // Gloy-Smith padded placement.
  {
    const Trg graph = Trg::build(
        w.profile_blocks,
        TrgConfig{.window_entries = trg_window_entries(32 * 1024, 64)});
    evaluate("Gloy-Smith padded",
             gloy_smith_placement(w.module, graph).layout);
  }
  evaluate("random", random_layout(w.module, 1234));

  std::printf("%s", table.render().c_str());
  return 0;
}
