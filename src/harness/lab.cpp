#include "harness/lab.hpp"

#include <algorithm>
#include <exception>
#include <future>

#include "support/check.hpp"
#include "support/registry.hpp"
#include "support/trace_recorder.hpp"

namespace codelayout {
namespace {

/// Span/histogram label for the optimizer slot of an EvalKey.
std::string opt_label(const std::optional<Optimizer>& optimizer) {
  return optimizer ? optimizer->name() : "Original";
}

const char* measure_label(Measure measure) {
  return measure == Measure::kHardware ? "hw" : "sim";
}

void stage_json(JsonWriter& json, const char* name,
                const StageSnapshot& stage) {
  json.begin_object(name)
      .field("computed", stage.computed)
      .field("hits", stage.hits)
      .field("waited", stage.waited)
      .field("wall_ms", static_cast<double>(stage.wall_nanos) / 1e6)
      .field("cpu_ms", static_cast<double>(stage.cpu_nanos) / 1e6)
      .end_object();
}

/// The distinct prepare and layout requests a batch's cells depend on: every
/// workload and peer, then every optimized layout, block granularity (the
/// costlier models) before function granularity, first appearance otherwise.
std::vector<EvalRequest> batch_inputs(std::span<const EvalRequest> requests) {
  std::vector<EvalRequest> prepares;
  std::vector<EvalRequest> layouts;
  const auto add = [](std::vector<EvalRequest>& out, EvalRequest request) {
    if (std::find(out.begin(), out.end(), request) == out.end()) {
      out.push_back(std::move(request));
    }
  };
  for (const EvalRequest& request : requests) {
    const EvalKey& key = request.key;
    add(prepares, EvalRequest::prepare(key.workload));
    if (key.optimizer) {
      add(layouts, EvalRequest::layout(key.workload, key.optimizer));
    }
    if (key.peer) {
      add(prepares, EvalRequest::prepare(*key.peer));
      if (key.peer_optimizer) {
        add(layouts, EvalRequest::layout(*key.peer, key.peer_optimizer));
      }
    }
  }
  std::stable_partition(layouts.begin(), layouts.end(),
                        [](const EvalRequest& request) {
                          return request.key.optimizer->granularity ==
                                 Granularity::kBlock;
                        });
  prepares.insert(prepares.end(), layouts.begin(), layouts.end());
  return prepares;
}

}  // namespace

std::uint64_t LabMetrics::tasks_executed() const {
  return prepare.computed + layout.computed + solo.computed + corun.computed;
}

std::uint64_t LabMetrics::tasks_deduplicated() const {
  return prepare.hits + prepare.waited + layout.hits + layout.waited +
         solo.hits + solo.waited + corun.hits + corun.waited;
}

std::string LabMetrics::to_json(std::string_view bench) const {
  JsonWriter json;
  if (!bench.empty()) json.field("bench", bench);
  json.begin_object("engine")
      .field("threads", threads)
      .field("batches", batches)
      .field("requests_submitted", requests_submitted)
      .field("tasks_executed", tasks_executed())
      .field("tasks_deduplicated", tasks_deduplicated())
      .field("engine_wall_ms",
             static_cast<double>(engine_wall_nanos) / 1e6);
  json.begin_object("stages");
  stage_json(json, "prepare", prepare);
  stage_json(json, "layout", layout);
  stage_json(json, "solo", solo);
  stage_json(json, "corun", corun);
  return json.finish();
}

Lab::Lab(LabOptions options) : options_(std::move(options)) {
  options_.validate();
  threads_ = options_.resolved_threads();
}

ThreadPool& Lab::pool() {
  std::call_once(pool_once_,
                 [this] { pool_ = std::make_unique<ThreadPool>(threads_); });
  return *pool_;
}

StageCounters* Lab::counters(Stage stage) {
  switch (stage) {
    case Stage::kPrepare: return &prepare_counters_;
    case Stage::kLayout: return &layout_counters_;
    case Stage::kSolo: return &solo_counters_;
    case Stage::kCorun: return &corun_counters_;
  }
  return nullptr;
}

SimOptions Lab::sim_options(Measure measure,
                            const HierarchySpec& hierarchy) const {
  SimOptions options = measure == Measure::kHardware ? hardware_proxy_options()
                                                     : SimOptions{};
  options.hierarchy = hierarchy;
  return options;
}

void Lab::execute(const EvalRequest& request) {
  const EvalKey& key = request.key;
  switch (request.stage) {
    case Stage::kPrepare:
      (void)workload(key.workload);
      return;
    case Stage::kLayout:
      (void)layout(key.workload, key.optimizer);
      return;
    case Stage::kSolo:
      (void)solo(key.workload, key.optimizer, key.measure, key.hierarchy);
      return;
    case Stage::kCorun:
      CL_CHECK_MSG(key.peer.has_value(),
                   "co-run request without a peer: " << key.to_string());
      (void)corun(key.workload, key.optimizer, *key.peer, key.peer_optimizer,
                  key.measure, key.hierarchy);
      return;
  }
  CL_CHECK_MSG(false, "unknown evaluation stage");
}

std::vector<std::exception_ptr> Lab::run_batch(
    std::span<const EvalRequest> requests) {
  CODELAYOUT_PHASE("evaluate_all", "lab", "lab.evaluate_all.wall_ns",
                   {"requests", std::uint64_t{requests.size()}});
  const std::uint64_t wall0 = wall_nanos_now();
  batches_.fetch_add(1, std::memory_order_relaxed);
  requests_submitted_.fetch_add(requests.size(), std::memory_order_relaxed);

  std::vector<std::exception_ptr> errors(requests.size());
  if (threads_ <= 1) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      try {
        execute(requests[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  } else {
    // Build the batch's inputs before its cells, so workers start on the
    // layouts instead of blocking in cells on a layout another worker has
    // only just begun. An input's failure is memoized, and the cell that
    // needs it reports it in its own outcome.
    std::vector<std::future<void>> inputs;
    if (requests.size() > 1) {
      for (const EvalRequest& input : batch_inputs(requests)) {
        inputs.push_back(pool().submit([this, input] {
          try {
            execute(input);
          } catch (...) {
          }
        }));
      }
    }
    std::vector<std::future<void>> futures;
    futures.reserve(requests.size());
    for (const EvalRequest& request : requests) {
      futures.push_back(
          pool().submit([this, request] { execute(request); }));
    }
    // Settle the whole batch before surfacing any failure, so no task is
    // left running against a caller that already unwound.
    for (std::size_t i = 0; i < futures.size(); ++i) {
      try {
        futures[i].get();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
    for (std::future<void>& input : inputs) input.wait();
  }
  engine_wall_nanos_.fetch_add(wall_nanos_now() - wall0,
                               std::memory_order_relaxed);
  return errors;
}

void Lab::evaluate_all(std::span<const EvalRequest> requests) {
  for (std::exception_ptr& error : run_batch(requests)) {
    if (error) std::rethrow_exception(error);
  }
}

std::vector<EvalOutcome> Lab::evaluate_all_checked(
    std::span<const EvalRequest> requests) {
  const std::vector<std::exception_ptr> errors = run_batch(requests);
  std::vector<EvalOutcome> outcomes(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    outcomes[i].request = requests[i];
    if (!errors[i]) continue;
    outcomes[i].status = CellStatus::kFailed;
    try {
      std::rethrow_exception(errors[i]);
    } catch (const std::exception& e) {
      outcomes[i].error = e.what();
    } catch (...) {
      outcomes[i].error = "unknown error";
    }
  }
  return outcomes;
}

void Lab::prepare_all(const std::vector<std::string>& names) {
  std::vector<EvalRequest> requests;
  requests.reserve(names.size());
  for (const std::string& name : names) {
    requests.push_back(EvalRequest::prepare(name));
  }
  evaluate_all(requests);
}

const PreparedWorkload& Lab::workload(const std::string& name) {
  const EvalKey key = EvalRequest::prepare(name).key;
  return workloads_.get_or_compute(key, counters(Stage::kPrepare), [&] {
    CODELAYOUT_PHASE("prepare", "lab", "lab.prepare.wall_ns",
                     {"workload", name});
    return prepare_workload(find_spec(name), options_.pipeline());
  });
}

const CodeLayout& Lab::layout(const std::string& name,
                              std::optional<Optimizer> optimizer) {
  const PreparedWorkload& prepared = workload(name);
  if (!optimizer) return prepared.original;

  const EvalKey key = EvalRequest::layout(name, optimizer).key;
  return layouts_.get_or_compute(key, counters(Stage::kLayout), [&] {
    CODELAYOUT_PHASE("layout", "lab", "lab.layout.wall_ns",
                     {"workload", name}, {"optimizer", opt_label(optimizer)});
    return optimize_layout(prepared, *optimizer, options_.pipeline());
  });
}

const FetchPlan& Lab::fetch_plan(const std::string& name,
                                 std::optional<Optimizer> optimizer) {
  return fetch_plan(name, optimizer, kL1I.line_bytes);
}

const FetchPlan& Lab::fetch_plan(const std::string& name,
                                 std::optional<Optimizer> optimizer,
                                 std::uint32_t line_bytes) {
  // Keyed like the layout stage plus the line size the plan was built for
  // (recorded via the key's hierarchy slot): the plan is a pure function of
  // (layout, line size), constant across both measurement flavours, and a
  // geometry sweep at a different line size gets its own cell instead of a
  // stale plan.
  EvalKey key = EvalRequest::layout(name, optimizer).key;
  key.hierarchy.l1.line_bytes = line_bytes;
  // Resolve the layout before entering the counter-less plan table: a cell
  // that needs a layout another worker is still building then waits on the
  // layout cell, where the wait is counted as `layout.waited`.
  const CodeLayout& lay = layout(name, optimizer);
  bool computed = false;
  const FetchPlan& plan =
      plans_.get_or_compute(key, /*counters=*/nullptr, [&] {
        computed = true;
        return FetchPlan(workload(name).module, lay, line_bytes);
      });
  MetricsRegistry& registry = MetricsRegistry::global();
  if (registry.enabled()) {
    registry.counter(computed ? "cache.fetch_plan.misses"
                              : "cache.fetch_plan.hits")
        .add(1);
  }
  return plan;
}

const SoloProfile& Lab::solo_profile(const std::string& name,
                                     std::optional<Optimizer> optimizer) {
  return solo_profile(name, optimizer, kL1I.line_bytes);
}

const SoloProfile& Lab::solo_profile(const std::string& name,
                                     std::optional<Optimizer> optimizer,
                                     std::uint32_t line_bytes) {
  // Keyed like fetch plans: the profile is a pure function of (layout, line
  // size), independent of measurement flavour (the model sees the bare
  // fetch stream), so one cell serves every pairing the predictor screens.
  EvalKey key = EvalRequest::layout(name, optimizer).key;
  key.hierarchy.l1.line_bytes = line_bytes;
  (void)layout(name, optimizer);  // waits counted, as in fetch_plan()
  bool computed = false;
  const SoloProfile& profile =
      profiles_.get_or_compute(key, /*counters=*/nullptr, [&] {
        computed = true;
        CODELAYOUT_PHASE("solo_profile", "lab", "lab.solo_profile.wall_ns",
                         {"workload", name},
                         {"optimizer", opt_label(optimizer)});
        const PreparedWorkload& prepared = workload(name);
        const FetchPlan& plan = fetch_plan(name, optimizer, line_bytes);
        return build_solo_profile(name, plan, prepared.eval_blocks,
                                  prepared.spec.data_stall_cpi, line_bytes);
      });
  if (!computed) {
    if (CostCounters* cost = current_job_context().cost) {
      cost->predict_profile_hits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  MetricsRegistry& registry = MetricsRegistry::global();
  if (registry.enabled()) {
    registry.counter(computed ? "perfmodel.predict.profile_builds"
                              : "perfmodel.predict.profile_memo_hits")
        .add(1);
  }
  return profile;
}

CorunPrediction Lab::predict_corun(const std::string& self_name,
                                   std::optional<Optimizer> self_opt,
                                   const std::string& peer_name,
                                   std::optional<Optimizer> peer_opt,
                                   const HierarchySpec& hierarchy) {
  const SoloProfile& self =
      solo_profile(self_name, self_opt, hierarchy.l1.line_bytes);
  const SoloProfile& peer =
      solo_profile(peer_name, peer_opt, hierarchy.l1.line_bytes);
  return codelayout::predict_corun(self, peer, hierarchy, options_.perf());
}

const SimResult& Lab::solo(const std::string& name,
                           std::optional<Optimizer> optimizer, Measure measure,
                           const HierarchySpec& hierarchy) {
  const EvalKey key =
      EvalRequest::solo(name, optimizer, measure, hierarchy).key;
  return solos_.get_or_compute(key, counters(Stage::kSolo), [&] {
    CODELAYOUT_PHASE("solo", "lab", "lab.solo.wall_ns", {"workload", name},
                     {"optimizer", opt_label(optimizer)},
                     {"measure", measure_label(measure)});
    const PreparedWorkload& prepared = workload(name);
    const FetchPlan& plan =
        fetch_plan(name, optimizer, key.hierarchy.l1.line_bytes);
    return simulate_solo(plan, prepared.eval_blocks,
                         sim_options(measure, key.hierarchy));
  });
}

const CorunResult& Lab::corun(const std::string& self_name,
                              std::optional<Optimizer> self_opt,
                              const std::string& peer_name,
                              std::optional<Optimizer> peer_opt,
                              Measure measure,
                              const HierarchySpec& hierarchy) {
  const EvalKey key = EvalRequest::corun(self_name, self_opt, peer_name,
                                         peer_opt, measure, hierarchy)
                          .key;
  return coruns_.get_or_compute(key, counters(Stage::kCorun), [&] {
    CODELAYOUT_PHASE("corun", "lab", "lab.corun.wall_ns",
                     {"workload", self_name},
                     {"optimizer", opt_label(self_opt)}, {"peer", peer_name},
                     {"peer_optimizer", opt_label(peer_opt)},
                     {"measure", measure_label(measure)});
    const PreparedWorkload& self = workload(self_name);
    const PreparedWorkload& peer = workload(peer_name);
    const FetchPlan& self_plan =
        fetch_plan(self_name, self_opt, key.hierarchy.l1.line_bytes);
    const FetchPlan& peer_plan =
        fetch_plan(peer_name, peer_opt, key.hierarchy.l1.line_bytes);
    return simulate_corun(self_plan, self.eval_blocks, peer_plan,
                          peer.eval_blocks, sim_options(measure, key.hierarchy),
                          corun_peer_speed(self.spec.data_stall_cpi,
                                           peer.spec.data_stall_cpi,
                                           options_.perf()));
  });
}

double Lab::solo_cycles(const std::string& name,
                        std::optional<Optimizer> optimizer,
                        const HierarchySpec& hierarchy) {
  const SimResult& sim = solo(name, optimizer, Measure::kHardware, hierarchy);
  return codelayout::solo_cycles(sim, workload(name).spec.data_stall_cpi,
                                 options_.perf(), hierarchy);
}

double Lab::corun_self_cycles(const std::string& self_name,
                              std::optional<Optimizer> self_opt,
                              const std::string& peer_name,
                              std::optional<Optimizer> peer_opt,
                              const HierarchySpec& hierarchy) {
  const CorunResult& result = corun(self_name, self_opt, peer_name, peer_opt,
                                    Measure::kHardware, hierarchy);
  return corun_cycles(result.self, result.self.instructions,
                      workload(self_name).spec.data_stall_cpi,
                      options_.perf(), hierarchy);
}

bool Lab::bb_reordering_supported(const std::string& name) {
  // The paper's BB-reordering compiler erred on these two (Sec. III-A);
  // their BB entries are reported as N/A, which we reproduce.
  return name != "400.perlbench" && name != "453.povray";
}

LabMetrics Lab::metrics() const {
  LabMetrics out;
  out.threads = threads_;
  out.prepare = StageSnapshot::from(prepare_counters_);
  out.layout = StageSnapshot::from(layout_counters_);
  out.solo = StageSnapshot::from(solo_counters_);
  out.corun = StageSnapshot::from(corun_counters_);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.requests_submitted =
      requests_submitted_.load(std::memory_order_relaxed);
  out.engine_wall_nanos = engine_wall_nanos_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace codelayout
