#include "walk.hpp"

#include <algorithm>
#include <future>
#include <set>

#include "affinity/analysis.hpp"
#include "cache/icache_sim.hpp"
#include "exec/interpreter.hpp"
#include "layout/layout.hpp"
#include "perfmodel/scheduler.hpp"
#include "support/trace_recorder.hpp"
#include "trace/prune.hpp"
#include "trg/graph.hpp"
#include "trg/reduction.hpp"
#include "workloads/spec.hpp"

namespace perfbench {

using namespace codelayout;

namespace {

std::string opt_label(const std::optional<Optimizer>& opt) {
  return opt ? opt->name() : "Original";
}

/// Runs `fn`, adds its wall time to `acc`, and records it as one span.
template <typename Fn>
auto timed(const char* span, std::atomic<std::uint64_t>& acc,
           std::vector<SpanArg> args, Fn&& fn) {
  const std::uint64_t start = wall_nanos_now();
  auto result = fn();
  const std::uint64_t ns = wall_nanos_now() - start;
  acc.fetch_add(ns, std::memory_order_relaxed);
  TraceRecorder::instance().record_span(span, "perfbench", start, ns,
                                        std::move(args));
  return result;
}

void add(std::atomic<std::uint64_t>& acc, std::uint64_t v) {
  acc.fetch_add(v, std::memory_order_relaxed);
}

void count_trace(LayerTotals& totals, const Trace& trace) {
  add(totals.trace_events, trace.size());
  add(totals.trace_runs, trace.run_count());
}

std::uint64_t load(const std::atomic<std::uint64_t>& v) {
  return v.load(std::memory_order_relaxed);
}

}  // namespace

std::uint64_t LayerTotals::engine_ns() const {
  return load(build_ns) + load(profile_ns) + load(prune_ns) +
         load(affinity_ns) + load(trg_build_ns) + load(trg_reduce_ns) +
         load(transform_ns) + load(fetch_plan_ns) + load(solo_ns) +
         load(corun_ns) + load(corun_l2_ns);
}

void LayerTotals::write(JsonWriter& json) const {
  json.field("build_ns", load(build_ns))
      .field("profile_ns", load(profile_ns))
      .field("profile_events", load(profile_events))
      .field("prune_ns", load(prune_ns))
      .field("trace_events", load(trace_events))
      .field("trace_runs", load(trace_runs))
      .field("affinity_calls", load(affinity_calls))
      .field("affinity_ns", load(affinity_ns))
      .field("affinity_events", load(affinity_events))
      .field("trg_build_ns", load(trg_build_ns))
      .field("trg_reduce_ns", load(trg_reduce_ns))
      .field("transform_ns", load(transform_ns))
      .field("fetch_plan_ns", load(fetch_plan_ns))
      .field("solo_calls", load(solo_calls))
      .field("solo_ns", load(solo_ns))
      .field("solo_events", load(solo_events))
      .field("corun_calls", load(corun_calls))
      .field("corun_ns", load(corun_ns))
      .field("corun_events", load(corun_events))
      .field("corun_l2_ns", load(corun_l2_ns))
      .field("perf_profile_ns", load(perf_profile_ns))
      .field("predict_calls", load(predict_calls))
      .field("schedule_ns", load(schedule_ns))
      .field("engine_ns", engine_ns());
}

LayerWalk::LayerWalk(LabOptions options, unsigned threads)
    : options_(std::move(options)) {
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

template <typename Fn>
void LayerWalk::parallel(std::size_t n, Fn fn) {
  if (!pool_) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool_->submit([&fn, i] { fn(i); }));
  }
  // Settle every task before rethrowing, so none outlives this frame.
  std::exception_ptr error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

PreparedWorkload LayerWalk::prepare(const std::string& name) {
  // The steps of prepare_workload(), one layer call at a time.
  const WorkloadSpec& spec = find_spec(name);
  const PipelineConfig& config = options_.pipeline();
  auto args = [&] { return std::vector<SpanArg>{{"workload", name}}; };
  Module module = timed("workloads.build", totals_.build_ns, args(),
                        [&] { return build_workload(spec); });
  ProfileResult test = timed("exec.profile", totals_.profile_ns, args(), [&] {
    return profile(module, config.profile_seed,
                   ExecLimits{.max_events = spec.profile_events,
                              .max_call_depth = 64});
  });
  PruneResult blocks = timed("trace.prune", totals_.prune_ns, args(), [&] {
    return prune_to_hot(test.block_trace, config.prune_top_k);
  });
  PruneResult functions = timed("trace.prune", totals_.prune_ns, args(), [&] {
    return prune_to_hot(project_to_functions(test.block_trace, module),
                        config.prune_top_k);
  });
  ProfileResult eval = timed("exec.profile", totals_.profile_ns, args(), [&] {
    return profile(module, config.eval_seed,
                   ExecLimits{.max_events = spec.eval_events,
                              .max_call_depth = 64});
  });
  CodeLayout original = timed("layout.transform", totals_.transform_ns,
                              args(), [&] { return original_layout(module); });
  add(totals_.profile_events, test.block_trace.size() + eval.block_trace.size());
  count_trace(totals_, blocks.trace);
  count_trace(totals_, functions.trace);
  count_trace(totals_, eval.block_trace);
  return PreparedWorkload{.spec = spec,
                         .module = std::move(module),
                         .profile_blocks = std::move(blocks.trace),
                         .profile_functions = std::move(functions.trace),
                         .prune_kept_fraction = blocks.kept_fraction(),
                         .eval_blocks = std::move(eval.block_trace),
                         .eval_instructions = eval.dynamic_instructions,
                         .original = std::move(original)};
}

std::unique_ptr<CodeLayout> LayerWalk::optimize(const LayoutKey& key) {
  // The steps of optimize_layout(), with the Lab's pool lent to the kernels.
  const auto& [name, opt] = key;
  const PreparedWorkload& prepared = *programs_.at(name);
  const PipelineConfig& config = options_.pipeline();
  const bool function = opt.granularity == Granularity::kFunction;
  const Trace& trace =
      function ? prepared.profile_functions : prepared.profile_blocks;
  auto args = [&] {
    return std::vector<SpanArg>{{"workload", name}, {"optimizer", opt.name()}};
  };
  std::vector<Symbol> sequence;
  if (opt.model == ModelKind::kAffinity) {
    AffinityConfig affinity = config.affinity;
    if (affinity.pool == nullptr) affinity.pool = pool_.get();
    affinity.dispatch = config.dispatch;
    sequence = timed("affinity.analyze", totals_.affinity_ns, args(), [&] {
      return analyze_affinity(trace, affinity).layout_order();
    });
    add(totals_.affinity_calls, 1);
    add(totals_.affinity_events, trace.size());
  } else {
    const std::uint32_t assumed =
        function ? config.trg_function_bytes : config.trg_block_bytes;
    const TrgConfig trg{
        .window_entries = trg_window_entries(config.trg_cache_bytes, assumed),
        .pool = pool_.get(),
        .dispatch = config.dispatch};
    const Trg graph = timed("trg.build", totals_.trg_build_ns, args(),
                            [&] { return Trg::build(trace, trg); });
    const std::uint32_t slots =
        trg_slot_count(config.trg_cache_bytes, 4, 64, assumed);
    sequence = timed("trg.reduce", totals_.trg_reduce_ns, args(),
                     [&] { return reduce_trg(graph, slots).order; });
  }
  return timed("layout.transform", totals_.transform_ns, args(), [&] {
    return std::make_unique<CodeLayout>(
        function ? function_reordering(prepared.module, sequence)
                 : bb_reordering(prepared.module, sequence));
  });
}

const CodeLayout& LayerWalk::layout(const std::string& name,
                                    OptOpt opt) const {
  if (!opt) return programs_.at(name)->original;
  return *layouts_.at({name, *opt});
}

SimOptions LayerWalk::sim_options(const EvalKey& key) const {
  SimOptions options = key.measure == Measure::kHardware
                           ? hardware_proxy_options()
                           : SimOptions{};
  options.hierarchy = key.hierarchy;
  options.dispatch = options_.pipeline().dispatch;
  return options;
}

void LayerWalk::solo(SoloMap::value_type& cell) {
  auto& [k, slot] = cell;
  const FetchPlan& plan =
      *plans_.at({k.workload, k.optimizer, k.hierarchy.l1.line_bytes});
  slot = timed("cache.solo", totals_.solo_ns,
               {{"workload", k.workload},
                {"optimizer", opt_label(k.optimizer)}},
               [&] {
                 return std::make_unique<SimResult>(simulate_solo(
                     plan, programs_.at(k.workload)->eval_blocks,
                     sim_options(k)));
               });
  add(totals_.solo_calls, 1);
  add(totals_.solo_events, slot->blocks);
}

void LayerWalk::corun(CorunMap::value_type& cell) {
  auto& [k, slot] = cell;
  const std::uint32_t line = k.hierarchy.l1.line_bytes;
  const PreparedWorkload& self = *programs_.at(k.workload);
  const PreparedWorkload& peer = *programs_.at(*k.peer);
  // Lab::corun's peer speed: SMT threads progress inversely to CPI.
  const double base = options_.perf().base_cpi;
  const double peer_speed = std::clamp(
      (base + self.spec.data_stall_cpi) / (base + peer.spec.data_stall_cpi),
      0.25, 4.0);
  const bool l2 = k.hierarchy.multi_level();
  slot = timed(l2 ? "cache.corun_l2" : "cache.corun",
               l2 ? totals_.corun_l2_ns : totals_.corun_ns,
               {{"workload", k.workload},
                {"optimizer", opt_label(k.optimizer)},
                {"peer", *k.peer},
                {"peer_optimizer", opt_label(k.peer_optimizer)}},
               [&] {
                 return std::make_unique<CorunResult>(simulate_corun(
                     *plans_.at({k.workload, k.optimizer, line}),
                     self.eval_blocks,
                     *plans_.at({*k.peer, k.peer_optimizer, line}),
                     peer.eval_blocks, sim_options(k), peer_speed));
               });
  if (!l2) {
    add(totals_.corun_calls, 1);
    add(totals_.corun_events, slot->self.blocks + slot->peer.blocks);
  }
}

void LayerWalk::solo_profile(ProfileMap::value_type& cell) {
  auto& [key, slot] = cell;
  const auto& [name, opt, line] = key;
  const PreparedWorkload& prepared = *programs_.at(name);
  slot = timed("perfmodel.profile", totals_.perf_profile_ns,
               {{"workload", name}, {"optimizer", opt_label(opt)}}, [&] {
                 return std::make_unique<SoloProfile>(build_solo_profile(
                     name, *plans_.at(key), prepared.eval_blocks,
                     prepared.spec.data_stall_cpi, line));
               });
}

std::uint64_t LayerWalk::run(
    const std::vector<EvalRequest>& requests,
    const std::vector<service::JobRequest>& coschedules) {
  const std::uint64_t start = wall_nanos_now();
  std::set<std::string> names;
  std::set<LayoutKey> layout_keys;
  std::set<PlanKey> plan_keys;
  std::set<PlanKey> profile_keys;
  auto need = [&](const std::string& name, OptOpt opt,
                  std::optional<std::uint32_t> line) {
    names.insert(name);
    if (opt) layout_keys.insert({name, *opt});
    if (line) plan_keys.insert({name, opt, *line});
  };
  for (const EvalRequest& r : requests) {
    const EvalKey& k = r.key;
    const std::uint32_t line = k.hierarchy.l1.line_bytes;
    switch (r.stage) {
      case Stage::kPrepare: need(k.workload, std::nullopt, std::nullopt); break;
      case Stage::kLayout: need(k.workload, k.optimizer, std::nullopt); break;
      case Stage::kSolo:
        need(k.workload, k.optimizer, line);
        solos_.try_emplace(k);
        break;
      case Stage::kCorun:
        need(k.workload, k.optimizer, line);
        need(*k.peer, k.peer_optimizer, line);
        coruns_.try_emplace(k);
        break;
    }
  }
  for (const service::JobRequest& job : coschedules) {
    for (const service::CorunPartyRequest& party : job.parties) {
      const std::uint32_t line = job.hierarchy.l1.line_bytes;
      need(party.workload, party.optimizer, line);
      profile_keys.insert({party.workload, party.optimizer, line});
    }
  }
  for (const std::string& name : names) programs_.try_emplace(name);
  for (const LayoutKey& key : layout_keys) layouts_.try_emplace(key);
  for (const PlanKey& key : plan_keys) plans_.try_emplace(key);
  for (const PlanKey& key : profile_keys) profiles_.try_emplace(key);

  // Dependency phases: programs, layouts, fetch plans, then every solo,
  // co-run and profile cell. Slots exist before each phase, so tasks only
  // write their own map node.
  auto slots_of = [](auto& map) {
    std::vector<typename std::decay_t<decltype(map)>::value_type*> out;
    for (auto& entry : map) out.push_back(&entry);
    return out;
  };
  const auto program_slots = slots_of(programs_);
  parallel(program_slots.size(), [&](std::size_t i) {
    auto& [name, slot] = *program_slots[i];
    slot = std::make_unique<PreparedWorkload>(prepare(name));
  });
  const auto layout_slots = slots_of(layouts_);
  parallel(layout_slots.size(), [&](std::size_t i) {
    layout_slots[i]->second = optimize(layout_slots[i]->first);
  });
  const auto plan_slots = slots_of(plans_);
  parallel(plan_slots.size(), [&](std::size_t i) {
    auto& [key, slot] = *plan_slots[i];
    const auto& [name, opt, line] = key;
    slot = timed("cache.fetch_plan", totals_.fetch_plan_ns,
                 {{"workload", name}, {"optimizer", opt_label(opt)}}, [&] {
                   return std::make_unique<FetchPlan>(
                       programs_.at(name)->module, layout(name, opt), line);
                 });
  });

  const auto solo_slots = slots_of(solos_);
  const auto corun_slots = slots_of(coruns_);
  const auto profile_slots = slots_of(profiles_);
  const std::size_t cells =
      solo_slots.size() + corun_slots.size() + profile_slots.size();
  parallel(cells, [&](std::size_t i) {
    if (i < solo_slots.size()) return solo(*solo_slots[i]);
    i -= solo_slots.size();
    if (i < corun_slots.size()) return corun(*corun_slots[i]);
    solo_profile(*profile_slots[i - corun_slots.size()]);
  });

  for (const service::JobRequest& job : coschedules) {
    std::vector<const SoloProfile*> profiles;
    for (const service::CorunPartyRequest& party : job.parties) {
      profiles.push_back(profiles_
                             .at({party.workload, party.optimizer,
                                  job.hierarchy.l1.line_bytes})
                             .get());
    }
    (void)timed("perfmodel.schedule", totals_.schedule_ns,
                {{"job", job.to_string()}}, [&] {
                  return schedule_corun(
                      compute_pair_costs(profiles, job.hierarchy,
                                         options_.perf()),
                      job.slots);
                });
    const std::uint64_t n = profiles.size();
    add(totals_.predict_calls, n * (n - 1) / 2);
  }
  return wall_nanos_now() - start;
}

std::size_t LayerWalk::mismatches(Lab& lab) const {
  std::size_t bad = 0;
  for (const auto& [name, prepared] : programs_) {
    const PreparedWorkload& ref = lab.workload(name);
    if (!(prepared->eval_blocks == ref.eval_blocks &&
          prepared->profile_blocks == ref.profile_blocks &&
          prepared->profile_functions == ref.profile_functions &&
          prepared->eval_instructions == ref.eval_instructions)) {
      ++bad;
    }
  }
  for (const auto& [key, layout] : layouts_) {
    if (!std::ranges::equal(layout->block_order(),
                            lab.layout(key.first, key.second).block_order())) {
      ++bad;
    }
  }
  for (const auto& [k, result] : solos_) {
    if (!(*result == lab.solo(k.workload, k.optimizer, k.measure,
                              k.hierarchy))) {
      ++bad;
    }
  }
  for (const auto& [k, result] : coruns_) {
    const CorunResult& ref = lab.corun(k.workload, k.optimizer, *k.peer,
                                       k.peer_optimizer, k.measure,
                                       k.hierarchy);
    if (!(result->self == ref.self && result->peer == ref.peer)) ++bad;
  }
  return bad;
}

}  // namespace perfbench
