#include "harness/experiments.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/stats.hpp"
#include "workloads/spec.hpp"

namespace codelayout {
namespace {

double corun_miss(Lab& lab, const std::string& self,
                  std::optional<Optimizer> self_opt, const std::string& peer,
                  Measure measure, const HierarchySpec& hierarchy) {
  return lab.corun(self, self_opt, peer, std::nullopt, measure, hierarchy)
      .self.miss_ratio();
}

// Request-list builders: each driver submits its full table/figure workload
// to the engine up front (Lab::evaluate_all), so independent cells simulate
// concurrently; the row-assembly loops below then run entirely off the warm
// memo and emit rows in the fixed reporting order.

void push_probe_coruns(std::vector<EvalRequest>& requests,
                       const std::string& name, const std::string& probe,
                       const HierarchySpec& hierarchy) {
  requests.push_back(EvalRequest::corun(name, std::nullopt, probe,
                                        std::nullopt, Measure::kHardware,
                                        hierarchy));
}

/// The cells corun_average() consumes for one (name, opt) Table II cell.
void push_table2_cell(std::vector<EvalRequest>& requests,
                      const std::string& name, Optimizer opt,
                      const std::vector<std::string>& probes,
                      const HierarchySpec& hierarchy) {
  if (opt.granularity == Granularity::kBlock &&
      !Lab::bb_reordering_supported(name)) {
    return;
  }
  for (const std::string& probe : probes) {
    for (const Measure measure : {Measure::kHardware, Measure::kSimulator}) {
      requests.push_back(EvalRequest::corun(name, std::nullopt, probe,
                                            std::nullopt, measure,
                                            hierarchy));
      requests.push_back(EvalRequest::corun(name, opt, probe, std::nullopt,
                                            measure, hierarchy));
    }
  }
}

/// Average co-run speedup/miss reductions of `opt` for `name` across probes.
Table2Cell corun_average(Lab& lab, const std::string& name, Optimizer opt,
                         const std::vector<std::string>& probes,
                         const HierarchySpec& hierarchy) {
  Table2Cell cell;
  if (opt.granularity == Granularity::kBlock &&
      !Lab::bb_reordering_supported(name)) {
    cell.available = false;
    return cell;
  }
  RunningStats speedup_stats, hw_stats, sim_stats;
  for (const auto& probe : probes) {
    const double base_cycles = lab.corun_self_cycles(
        name, std::nullopt, probe, std::nullopt, hierarchy);
    const double opt_cycles =
        lab.corun_self_cycles(name, opt, probe, std::nullopt, hierarchy);
    speedup_stats.add(base_cycles / opt_cycles);
    const double hw0 = corun_miss(lab, name, std::nullopt, probe,
                                  Measure::kHardware, hierarchy);
    const double hw1 =
        corun_miss(lab, name, opt, probe, Measure::kHardware, hierarchy);
    hw_stats.add(hw0 > 0 ? 1.0 - hw1 / hw0 : 0.0);
    const double sim0 = corun_miss(lab, name, std::nullopt, probe,
                                   Measure::kSimulator, hierarchy);
    const double sim1 =
        corun_miss(lab, name, opt, probe, Measure::kSimulator, hierarchy);
    sim_stats.add(sim0 > 0 ? 1.0 - sim1 / sim0 : 0.0);
  }
  cell.speedup = speedup_stats.mean();
  cell.miss_reduction_hw = hw_stats.mean();
  cell.miss_reduction_sim = sim_stats.mean();
  return cell;
}

}  // namespace

IntroTable intro_table(Lab& lab, double nontrivial_threshold,
                       const HierarchySpec& hierarchy) {
  // Two dependency-ordered batches: every solo first (the threshold filter
  // needs them), then the co-runs of the programs that qualify.
  std::vector<EvalRequest> requests;
  for (const WorkloadSpec& spec : spec_suite()) {
    requests.push_back(EvalRequest::solo(spec.name, std::nullopt,
                                         Measure::kHardware, hierarchy));
  }
  lab.evaluate_all(requests);
  requests.clear();
  for (const WorkloadSpec& spec : spec_suite()) {
    if (lab.solo(spec.name, std::nullopt, Measure::kHardware, hierarchy)
            .miss_ratio() < nontrivial_threshold) {
      continue;
    }
    push_probe_coruns(requests, spec.name, kProbe1, hierarchy);
    push_probe_coruns(requests, spec.name, kProbe2, hierarchy);
  }
  lab.evaluate_all(requests);

  IntroTable out{};
  RunningStats solo, c1, c2;
  for (const WorkloadSpec& spec : spec_suite()) {
    const double s =
        lab.solo(spec.name, std::nullopt, Measure::kHardware, hierarchy)
            .miss_ratio();
    if (s < nontrivial_threshold) continue;
    out.programs.push_back(spec.name);
    solo.add(s);
    c1.add(corun_miss(lab, spec.name, std::nullopt, kProbe1,
                      Measure::kHardware, hierarchy));
    c2.add(corun_miss(lab, spec.name, std::nullopt, kProbe2,
                      Measure::kHardware, hierarchy));
  }
  CL_CHECK_MSG(solo.count() > 0, "no program crosses the threshold");
  out.avg_solo = solo.mean();
  out.avg_corun1 = c1.mean();
  out.avg_corun2 = c2.mean();
  return out;
}

std::vector<Fig4Row> fig4_rows(Lab& lab, const HierarchySpec& hierarchy) {
  std::vector<EvalRequest> requests;
  for (const WorkloadSpec& spec : spec_suite()) {
    requests.push_back(EvalRequest::solo(spec.name, std::nullopt,
                                         Measure::kHardware, hierarchy));
    push_probe_coruns(requests, spec.name, kProbe1, hierarchy);
    push_probe_coruns(requests, spec.name, kProbe2, hierarchy);
  }
  lab.evaluate_all(requests);

  std::vector<Fig4Row> rows;
  for (const WorkloadSpec& spec : spec_suite()) {
    rows.push_back(Fig4Row{
        .name = spec.name,
        .solo =
            lab.solo(spec.name, std::nullopt, Measure::kHardware, hierarchy)
                .miss_ratio(),
        .probe_gcc =
            corun_miss(lab, spec.name, std::nullopt, kProbe1,
                       Measure::kHardware, hierarchy),
        .probe_gamess =
            corun_miss(lab, spec.name, std::nullopt, kProbe2,
                       Measure::kHardware, hierarchy)});
  }
  return rows;
}

std::vector<Table1Row> table1_rows(Lab& lab,
                                   const HierarchySpec& hierarchy) {
  std::vector<EvalRequest> requests;
  for (const std::string& name : selected_benchmarks()) {
    requests.push_back(EvalRequest::solo(name, std::nullopt,
                                         Measure::kHardware, hierarchy));
    push_probe_coruns(requests, name, kProbe1, hierarchy);
    push_probe_coruns(requests, name, kProbe2, hierarchy);
  }
  lab.evaluate_all(requests);

  std::vector<Table1Row> rows;
  for (const std::string& name : selected_benchmarks()) {
    const PreparedWorkload& w = lab.workload(name);
    rows.push_back(Table1Row{
        .name = name,
        .dynamic_instructions = w.eval_instructions,
        .static_bytes = w.module.static_bytes(),
        .solo = lab.solo(name, std::nullopt, Measure::kHardware, hierarchy)
                    .miss_ratio(),
        .corun_gcc = corun_miss(lab, name, std::nullopt, kProbe1,
                                Measure::kHardware, hierarchy),
        .corun_gamess = corun_miss(lab, name, std::nullopt, kProbe2,
                                   Measure::kHardware, hierarchy)});
  }
  return rows;
}

std::vector<Fig5Row> fig5_rows(Lab& lab, const HierarchySpec& hierarchy) {
  std::vector<EvalRequest> requests;
  for (const std::string& name : selected_benchmarks()) {
    requests.push_back(EvalRequest::solo(name, std::nullopt,
                                         Measure::kHardware, hierarchy));
    requests.push_back(EvalRequest::solo(name, kFuncAffinity,
                                         Measure::kHardware, hierarchy));
    if (Lab::bb_reordering_supported(name)) {
      requests.push_back(EvalRequest::solo(name, kBBAffinity,
                                           Measure::kHardware, hierarchy));
    }
  }
  lab.evaluate_all(requests);

  std::vector<Fig5Row> rows;
  for (const std::string& name : selected_benchmarks()) {
    Fig5Row row{.name = name,
                .bb_supported = Lab::bb_reordering_supported(name),
                .func_speedup = 0,
                .func_miss_reduction = 0,
                .bb_speedup = 0,
                .bb_miss_reduction = 0};
    const double base_cycles = lab.solo_cycles(name, std::nullopt, hierarchy);
    const double base_miss =
        lab.solo(name, std::nullopt, Measure::kHardware, hierarchy)
            .miss_ratio();
    row.func_speedup =
        base_cycles / lab.solo_cycles(name, kFuncAffinity, hierarchy);
    const double func_miss =
        lab.solo(name, kFuncAffinity, Measure::kHardware, hierarchy)
            .miss_ratio();
    row.func_miss_reduction =
        base_miss > 0 ? 1.0 - func_miss / base_miss : 0.0;
    if (row.bb_supported) {
      row.bb_speedup =
          base_cycles / lab.solo_cycles(name, kBBAffinity, hierarchy);
      const double bb_miss =
          lab.solo(name, kBBAffinity, Measure::kHardware, hierarchy)
              .miss_ratio();
      row.bb_miss_reduction = base_miss > 0 ? 1.0 - bb_miss / base_miss : 0.0;
    }
    rows.push_back(row);
  }
  return rows;
}

std::vector<Table2Row> table2_rows(Lab& lab,
                                   const HierarchySpec& hierarchy) {
  const auto& probes = selected_benchmarks();
  std::vector<EvalRequest> requests;
  for (const std::string& name : selected_benchmarks()) {
    for (const Optimizer opt : {kFuncAffinity, kBBAffinity, kFuncTrg}) {
      push_table2_cell(requests, name, opt, probes, hierarchy);
    }
  }
  lab.evaluate_all(requests);

  std::vector<Table2Row> rows;
  for (const std::string& name : selected_benchmarks()) {
    rows.push_back(Table2Row{
        .name = name,
        .func_affinity =
            corun_average(lab, name, kFuncAffinity, probes, hierarchy),
        .bb_affinity = corun_average(lab, name, kBBAffinity, probes,
                                     hierarchy),
        .func_trg = corun_average(lab, name, kFuncTrg, probes, hierarchy)});
  }
  return rows;
}

std::vector<Fig6Cell> fig6_cells(Lab& lab, Optimizer optimizer,
                                 const HierarchySpec& hierarchy) {
  std::vector<EvalRequest> requests;
  for (const std::string& name : selected_benchmarks()) {
    if (optimizer.granularity == Granularity::kBlock &&
        !Lab::bb_reordering_supported(name)) {
      continue;
    }
    for (const std::string& probe : selected_benchmarks()) {
      requests.push_back(EvalRequest::corun(name, std::nullopt, probe,
                                            std::nullopt, Measure::kHardware,
                                            hierarchy));
      requests.push_back(EvalRequest::corun(name, optimizer, probe,
                                            std::nullopt, Measure::kHardware,
                                            hierarchy));
    }
  }
  lab.evaluate_all(requests);

  std::vector<Fig6Cell> cells;
  for (const std::string& name : selected_benchmarks()) {
    if (optimizer.granularity == Granularity::kBlock &&
        !Lab::bb_reordering_supported(name)) {
      continue;
    }
    for (const std::string& probe : selected_benchmarks()) {
      const double base = lab.corun_self_cycles(name, std::nullopt, probe,
                                                std::nullopt, hierarchy);
      const double opt = lab.corun_self_cycles(name, optimizer, probe,
                                               std::nullopt, hierarchy);
      cells.push_back(Fig6Cell{name, probe, base / opt});
    }
  }
  return cells;
}

const std::vector<std::string>& fig7_programs() {
  // The 28 pairs of Fig. 7 span 7 programs: the selected 8 minus gobmk.
  static const std::vector<std::string> programs = [] {
    std::vector<std::string> out;
    for (const std::string& name : selected_benchmarks()) {
      if (name != "445.gobmk") out.push_back(name);
    }
    return out;
  }();
  return programs;
}

std::vector<Fig7Pair> fig7_pairs(Lab& lab, const HierarchySpec& hierarchy) {
  const auto& programs = fig7_programs();
  std::vector<EvalRequest> requests;
  for (const std::string& name : programs) {
    requests.push_back(EvalRequest::solo(name, std::nullopt,
                                         Measure::kHardware, hierarchy));
    requests.push_back(EvalRequest::solo(name, kFuncAffinity,
                                         Measure::kHardware, hierarchy));
  }
  for (std::size_t i = 0; i < programs.size(); ++i) {
    for (std::size_t j = i; j < programs.size(); ++j) {
      const std::string& a = programs[i];
      const std::string& b = programs[j];
      requests.push_back(EvalRequest::corun(a, std::nullopt, b, std::nullopt,
                                            Measure::kHardware, hierarchy));
      requests.push_back(EvalRequest::corun(b, std::nullopt, a, std::nullopt,
                                            Measure::kHardware, hierarchy));
      requests.push_back(EvalRequest::corun(a, kFuncAffinity, b, std::nullopt,
                                            Measure::kHardware, hierarchy));
      requests.push_back(EvalRequest::corun(b, std::nullopt, a, kFuncAffinity,
                                            Measure::kHardware, hierarchy));
    }
  }
  lab.evaluate_all(requests);

  std::vector<Fig7Pair> pairs;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    for (std::size_t j = i; j < programs.size(); ++j) {
      const std::string& a = programs[i];
      const std::string& b = programs[j];
      const double solo_a = lab.solo_cycles(a, std::nullopt, hierarchy);
      const double solo_b = lab.solo_cycles(b, std::nullopt, hierarchy);

      const double base_a = lab.corun_self_cycles(a, std::nullopt, b,
                                                  std::nullopt, hierarchy);
      const double base_b = lab.corun_self_cycles(b, std::nullopt, a,
                                                  std::nullopt, hierarchy);
      const auto baseline =
          corun_throughput(solo_a, base_a, solo_b, base_b);

      // Function affinity applied to program a (optimized+baseline co-run).
      const double opt_solo_a = lab.solo_cycles(a, kFuncAffinity, hierarchy);
      const double opt_a = lab.corun_self_cycles(a, kFuncAffinity, b,
                                                 std::nullopt, hierarchy);
      const double peer_b = lab.corun_self_cycles(b, std::nullopt, a,
                                                  kFuncAffinity, hierarchy);
      const auto optimized =
          corun_throughput(opt_solo_a, opt_a, solo_b, peer_b);

      pairs.push_back(Fig7Pair{.a = a,
                               .b = b,
                               .baseline_improvement = baseline.improvement(),
                               .optimized_improvement =
                                   optimized.improvement()});
    }
  }
  return pairs;
}

std::vector<std::string> top_improving_programs(
    Lab& lab, std::size_t n, const HierarchySpec& hierarchy) {
  // The rank is Table II's function-affinity speedup: per program, the mean
  // over the probes, in probe order, of the hardware co-run speedup. Those
  // are Fig. 6's function-affinity cells, so only they are computed, not
  // the rest of Table II.
  const std::vector<Fig6Cell> cells = fig6_cells(lab, kFuncAffinity, hierarchy);
  std::vector<std::pair<double, std::string>> ranked;
  RunningStats speedup;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    speedup.add(cells[i].speedup);
    if (i + 1 == cells.size() || cells[i + 1].program != cells[i].program) {
      ranked.emplace_back(speedup.mean(), cells[i].program);
      speedup = RunningStats{};
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n && i < ranked.size(); ++i) {
    out.push_back(ranked[i].second);
  }
  return out;
}

std::vector<Sec3FRow> sec3f_rows(Lab& lab, std::size_t top_n,
                                 const HierarchySpec& hierarchy) {
  const auto programs = top_improving_programs(lab, top_n, hierarchy);
  std::vector<EvalRequest> requests;
  for (const std::string& a : programs) {
    for (const std::string& b : programs) {
      requests.push_back(EvalRequest::corun(a, std::nullopt, b, std::nullopt,
                                            Measure::kHardware, hierarchy));
      requests.push_back(EvalRequest::corun(a, kFuncAffinity, b, std::nullopt,
                                            Measure::kHardware, hierarchy));
      requests.push_back(EvalRequest::corun(a, kFuncAffinity, b,
                                            kFuncAffinity, Measure::kHardware,
                                            hierarchy));
    }
  }
  lab.evaluate_all(requests);

  std::vector<Sec3FRow> rows;
  for (const std::string& a : programs) {
    for (const std::string& b : programs) {
      const double base = lab.corun_self_cycles(a, std::nullopt, b,
                                                std::nullopt, hierarchy);
      const double opt_base = lab.corun_self_cycles(a, kFuncAffinity, b,
                                                    std::nullopt, hierarchy);
      const double opt_opt = lab.corun_self_cycles(a, kFuncAffinity, b,
                                                   kFuncAffinity, hierarchy);
      rows.push_back(Sec3FRow{.program = a,
                              .peer = b,
                              .opt_base_speedup = base / opt_base,
                              .opt_opt_speedup = base / opt_opt});
    }
  }
  return rows;
}

}  // namespace codelayout
