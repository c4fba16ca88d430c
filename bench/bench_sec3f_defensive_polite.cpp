// E7 — regenerates the Sec. III-F experiment ("Combining Defensiveness and
// Politeness"): the three most-improving programs under function affinity
// are co-run optimized+optimized and compared against optimized+baseline.
//
// Paper finding (negative result): optimized-optimized shows only
// negligible further improvement over optimized-baseline — and no slowdown —
// because one optimized program already leaves no instruction-cache
// contention to remove.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "harness/experiments.hpp"
#include "support/format.hpp"
#include "support/stats.hpp"

using namespace codelayout;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  Lab lab(bench_lab_options(args));
  const std::vector<Sec3FRow> rows = sec3f_rows(lab, 3, args.hierarchy());
  // The rows run program-major over the ranked programs.
  std::printf("Top-3 programs by function-affinity co-run speedup:");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i == 0 || rows[i].program != rows[i - 1].program) {
      std::printf(" %s", rows[i].program.c_str());
    }
  }
  std::printf("\n\nSec. III-F: optimized+baseline vs optimized+optimized "
              "co-run speedups\n(paper: negligible additional improvement, "
              "no slowdown)\n\n");

  TextTable table({"program", "peer", "opt+base speedup", "opt+opt speedup",
                   "additional"});
  RunningStats additional;
  for (const Sec3FRow& row : rows) {
    const double add = row.opt_opt_speedup / row.opt_base_speedup - 1.0;
    additional.add(add);
    table.add_row({row.program, row.peer,
                   fmt_fixed(row.opt_base_speedup, 4),
                   fmt_fixed(row.opt_opt_speedup, 4),
                   fmt_signed_pct(add)});
  }
  std::printf("%s\navg additional improvement from optimizing the peer too: "
              "%s (min %s, max %s)\n",
              table.render().c_str(),
              fmt_signed_pct(additional.mean()).c_str(),
              fmt_signed_pct(additional.min()).c_str(),
              fmt_signed_pct(additional.max()).c_str());
  finish_bench(args, "sec3f_defensive_polite", lab);
  return 0;
}
