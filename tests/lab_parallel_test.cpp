// Tests for the Lab's parallel evaluation engine: the typed EvalKey/
// EvalRequest API, LabOptions validation, per-key once-execution under
// concurrent hammering, thread-count determinism of the experiment drivers,
// the cells Sec. III-F computes, the per-stage metrics, and bounded metric
// names.
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/eval.hpp"
#include "harness/experiments.hpp"
#include "harness/lab.hpp"
#include "harness/options.hpp"
#include "support/check.hpp"
#include "support/registry.hpp"
#include "workloads/spec.hpp"

namespace codelayout {
namespace {

// ---- EvalKey / EvalRequest --------------------------------------------------

TEST(EvalKeyTest, EqualityAndOrdering) {
  const EvalKey a = EvalRequest::solo("429.mcf", std::nullopt,
                                      Measure::kHardware).key;
  const EvalKey b = EvalRequest::solo("429.mcf", std::nullopt,
                                      Measure::kHardware).key;
  const EvalKey c = EvalRequest::solo("429.mcf", kFuncAffinity,
                                      Measure::kHardware).key;
  const EvalKey d = EvalRequest::solo("429.mcf", std::nullopt,
                                      Measure::kSimulator).key;
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  // Keys are totally ordered, so they can live in sorted containers.
  EXPECT_TRUE(a < c || c < a);
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
}

TEST(EvalKeyTest, HashAgreesWithEquality) {
  const EvalKeyHash hash;
  const EvalKey a = EvalRequest::corun("458.sjeng", kBBAffinity, kProbe1,
                                       std::nullopt, Measure::kHardware).key;
  const EvalKey b = EvalRequest::corun("458.sjeng", kBBAffinity, kProbe1,
                                       std::nullopt, Measure::kHardware).key;
  const EvalKey c = EvalRequest::corun("458.sjeng", kBBAffinity, kProbe2,
                                       std::nullopt, Measure::kHardware).key;
  EXPECT_EQ(hash(a), hash(b));
  // Not guaranteed in principle, but a collision here would indicate the
  // hash ignores the peer field.
  EXPECT_NE(hash(a), hash(c));
}

TEST(EvalKeyTest, ToStringNamesEveryComponent) {
  const EvalKey solo_key =
      EvalRequest::solo("458.sjeng", kBBAffinity, Measure::kSimulator).key;
  EXPECT_EQ(solo_key.to_string(), "458.sjeng|BB Affinity|sim");
  const EvalKey corun_key =
      EvalRequest::corun("458.sjeng", std::nullopt, "403.gcc", kFuncAffinity,
                         Measure::kHardware).key;
  EXPECT_EQ(corun_key.to_string(),
            "458.sjeng|Original|vs|403.gcc|Function Affinity|hw");
}

TEST(EvalRequestTest, FactoriesPopulateStageAndKey) {
  const EvalRequest prep = EvalRequest::prepare("429.mcf");
  EXPECT_EQ(prep.stage, Stage::kPrepare);
  EXPECT_EQ(prep.key.workload, "429.mcf");
  EXPECT_FALSE(prep.key.optimizer.has_value());
  EXPECT_FALSE(prep.key.peer.has_value());

  const EvalRequest lay = EvalRequest::layout("429.mcf", kFuncTrg);
  EXPECT_EQ(lay.stage, Stage::kLayout);
  EXPECT_EQ(lay.key.optimizer, kFuncTrg);

  const EvalRequest co = EvalRequest::corun("429.mcf", kFuncAffinity,
                                            "403.gcc", std::nullopt,
                                            Measure::kSimulator);
  EXPECT_EQ(co.stage, Stage::kCorun);
  EXPECT_EQ(co.key.peer, "403.gcc");
  EXPECT_EQ(co.key.measure, Measure::kSimulator);
  EXPECT_EQ(co, EvalRequest::corun("429.mcf", kFuncAffinity, "403.gcc",
                                   std::nullopt, Measure::kSimulator));
}

TEST(StageTest, NamesAreStable) {
  EXPECT_STREQ(stage_name(Stage::kPrepare), "prepare");
  EXPECT_STREQ(stage_name(Stage::kLayout), "layout");
  EXPECT_STREQ(stage_name(Stage::kSolo), "solo");
  EXPECT_STREQ(stage_name(Stage::kCorun), "corun");
}

// ---- LabOptions validation --------------------------------------------------

TEST(LabOptionsTest, DefaultOptionsAreValid) {
  EXPECT_NO_THROW(LabOptions{}.validate());
  EXPECT_NO_THROW(Lab{});
}

TEST(LabOptionsTest, ResolvedThreads) {
  EXPECT_GE(LabOptions{}.resolved_threads(), 1u);
  EXPECT_EQ(LabOptions{}.threads(3).resolved_threads(), 3u);
}

TEST(LabOptionsTest, RejectsZeroPruneBudget) {
  PipelineConfig config;
  config.prune_top_k = 0;
  try {
    Lab lab(LabOptions{}.pipeline(config));
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("prune_top_k"), std::string::npos);
  }
}

TEST(LabOptionsTest, RejectsZeroTrgCache) {
  PipelineConfig config;
  config.trg_cache_bytes = 0;
  EXPECT_THROW(LabOptions{}.pipeline(config).validate(), ContractError);
}

TEST(LabOptionsTest, RejectsEmptyAffinityGrid) {
  PipelineConfig config;
  config.affinity.w_values.clear();
  try {
    LabOptions{}.pipeline(config).validate();
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("w_values"), std::string::npos);
  }
}

TEST(LabOptionsTest, ListsEveryProblemAtOnce) {
  PipelineConfig config;
  config.prune_top_k = 0;
  config.trg_cache_bytes = PipelineConfig::trg_block_bytes / 2;
  config.affinity.w_values = {4, 3};
  try {
    LabOptions{}.pipeline(config).validate();
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("prune_top_k"), std::string::npos);
    EXPECT_NE(what.find("trg_block_bytes exceeds trg_cache_bytes"),
              std::string::npos);
    EXPECT_NE(what.find("w_values"), std::string::npos);
  }
}

// ---- Engine behaviour -------------------------------------------------------

TEST(LabEngineTest, BatchDeduplicatesIdenticalRequests) {
  Lab lab(LabOptions{}.threads(2));
  EXPECT_EQ(lab.threads(), 2u);

  const EvalRequest solo =
      EvalRequest::solo("429.mcf", std::nullopt, Measure::kHardware);
  const std::vector<EvalRequest> requests = {solo, solo, solo, solo};
  lab.evaluate_all(requests);

  const LabMetrics metrics = lab.metrics();
  EXPECT_EQ(metrics.batches, 1u);
  EXPECT_EQ(metrics.requests_submitted, 4u);
  EXPECT_EQ(metrics.solo.computed, 1u);  // one cell despite four requests
  EXPECT_EQ(metrics.prepare.computed, 1u);
  EXPECT_EQ(metrics.solo.hits + metrics.solo.waited, 3u);
  EXPECT_GT(metrics.tasks_deduplicated(), 0u);
}

TEST(LabEngineTest, ErrorsAreCachedAndRethrownToEveryRequester) {
  Lab lab(LabOptions{}.threads(1));
  EXPECT_THROW(lab.workload("not-a-benchmark"), std::exception);
  EXPECT_THROW(lab.workload("not-a-benchmark"), std::exception);
  // The failing compute ran once; the second lookup was a (cached) hit.
  const LabMetrics metrics = lab.metrics();
  EXPECT_EQ(metrics.prepare.computed, 1u);
  EXPECT_EQ(metrics.prepare.hits, 1u);
}

TEST(LabEngineTest, MetricsJsonNamesEveryStage) {
  Lab lab(LabOptions{}.threads(1));
  lab.workload("429.mcf");
  const std::string json = lab.metrics().to_json("unit_test");
  for (const char* needle :
       {"\"bench\":\"unit_test\"", "\"engine\"", "\"threads\"", "\"stages\"",
        "\"prepare\"", "\"layout\"", "\"solo\"", "\"corun\"", "\"computed\"",
        "\"tasks_executed\"", "\"tasks_deduplicated\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle;
  }
}

// Results one thread reads for a (workload, peer) cell pair; every field is
// a deterministic function of the key, so copies must match bit-for-bit.
struct CellReadout {
  double solo_base = 0, solo_opt = 0;
  double cycles_base = 0, cycles_opt = 0;
  double corun_base = 0, corun_opt = 0;

  static CellReadout read(Lab& lab, const std::string& name) {
    CellReadout out;
    out.solo_base = lab.solo(name, std::nullopt, Measure::kHardware)
                        .miss_ratio();
    out.solo_opt = lab.solo(name, kFuncAffinity, Measure::kHardware)
                       .miss_ratio();
    out.cycles_base = lab.solo_cycles(name, std::nullopt);
    out.cycles_opt = lab.solo_cycles(name, kFuncAffinity);
    out.corun_base =
        lab.corun_self_cycles(name, std::nullopt, kProbe1, std::nullopt);
    out.corun_opt =
        lab.corun_self_cycles(name, kFuncAffinity, kProbe1, std::nullopt);
    return out;
  }

  friend bool operator==(const CellReadout&, const CellReadout&) = default;
};

TEST(LabEngineTest, ConcurrentHammeringMatchesSerialEngine) {
  const std::vector<std::string> names = {"429.mcf", "458.sjeng"};

  // Reference: the serial engine (threads == 1 computes inline, no pool).
  Lab serial(LabOptions{}.threads(1));
  std::vector<CellReadout> expected;
  for (const std::string& name : names) {
    expected.push_back(CellReadout::read(serial, name));
  }

  // N client threads hammer one parallel Lab with the same lookups.
  Lab parallel(LabOptions{}.threads(4));
  constexpr int kClients = 8;
  std::vector<std::vector<CellReadout>> observed(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&parallel, &names, &observed, i] {
        for (const std::string& name : names) {
          observed[static_cast<std::size_t>(i)].push_back(
              CellReadout::read(parallel, name));
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (const auto& per_client : observed) {
    EXPECT_EQ(per_client, expected);
  }

  // Despite 8 clients, each unique cell was computed exactly once:
  // prepare {mcf, sjeng, gcc}; FA layouts {mcf, sjeng}; solos base+FA per
  // workload; hw co-runs vs gcc base+FA per workload.
  const LabMetrics metrics = parallel.metrics();
  EXPECT_EQ(metrics.prepare.computed, 3u);
  EXPECT_EQ(metrics.layout.computed, 2u);
  EXPECT_EQ(metrics.solo.computed, 4u);
  EXPECT_EQ(metrics.corun.computed, 4u);
  EXPECT_EQ(metrics.tasks_executed(), 13u);
  EXPECT_GT(metrics.tasks_deduplicated(), 0u);
}

TEST(LabEngineTest, DriverRowsAreIdenticalAtAnyThreadCount) {
  Lab serial(LabOptions{}.threads(1));
  Lab parallel(LabOptions{}.threads(4));
  // Sec. III-F computes only the cells it reads. Its ranking reads the
  // hardware co-runs of the original and function-affinity layouts, 8
  // programs x 8 probes x 2 = 128, which are the Fig. 6 cells below; its
  // rows add the 9 optimized+optimized co-runs of the top 3. The only
  // layouts are the 8 function-affinity ones.
  EXPECT_EQ(sec3f_rows(parallel).size(), 9u);
  const LabMetrics metrics = parallel.metrics();
  EXPECT_EQ(metrics.corun.computed, 137u);
  EXPECT_EQ(metrics.layout.computed, 8u);

  const std::vector<Fig6Cell> a = fig6_cells(serial, kFuncAffinity);
  const std::vector<Fig6Cell> b = fig6_cells(parallel, kFuncAffinity);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].program, b[i].program);
    EXPECT_EQ(a[i].probe, b[i].probe);
    // Bit-identical, not approximately equal: the engine adds no
    // nondeterminism, whatever the thread count.
    EXPECT_EQ(a[i].speedup, b[i].speedup) << a[i].program << " vs "
                                          << a[i].probe;
  }
}

// ---- evaluate_all_checked: per-cell status ----------------------------------

TEST(LabEngineTest, CheckedBatchIsolatesFailuresPerCell) {
  Lab lab(LabOptions{}.threads(2));
  const std::vector<EvalRequest> requests = {
      EvalRequest::solo("429.mcf", std::nullopt, Measure::kHardware),
      EvalRequest::prepare("no.such-benchmark"),
      EvalRequest::solo("458.sjeng", kFuncAffinity, Measure::kSimulator),
  };
  const std::vector<EvalOutcome> outcomes = lab.evaluate_all_checked(requests);
  ASSERT_EQ(outcomes.size(), requests.size());

  // Outcomes are positional: outcome[i] reports request[i].
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_TRUE(outcomes[0].error.empty());
  EXPECT_EQ(outcomes[0].request, requests[0]);

  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_EQ(outcomes[1].status, CellStatus::kFailed);
  EXPECT_NE(outcomes[1].error.find("no.such-benchmark"), std::string::npos)
      << outcomes[1].error;

  // The bad cell did not poison its neighbours: both good cells
  // materialized and are readable afterwards.
  EXPECT_TRUE(outcomes[2].ok());
  EXPECT_GT(lab.solo("429.mcf", std::nullopt, Measure::kHardware).instructions,
            0u);
  EXPECT_GT(
      lab.solo("458.sjeng", kFuncAffinity, Measure::kSimulator).instructions,
      0u);
}

TEST(LabEngineTest, PoolBatchIsolatesAFailedLayoutInput) {
  // On the pool path a batch builds its prepare and layout inputs first. A
  // co-run cell whose own layout cannot be built fails alone, naming the
  // workload; its neighbours still share the inputs built for them.
  Lab lab(LabOptions{}.threads(2));
  const std::vector<EvalRequest> requests = {
      EvalRequest::solo("429.mcf", kFuncAffinity, Measure::kHardware),
      EvalRequest::corun("no.such-benchmark", kFuncAffinity, "429.mcf",
                         std::nullopt, Measure::kHardware),
      EvalRequest::corun("458.sjeng", kFuncAffinity, "429.mcf", kFuncAffinity,
                         Measure::kSimulator),
      EvalRequest::solo("458.sjeng", kFuncAffinity, Measure::kSimulator),
  };
  const std::vector<EvalOutcome> outcomes = lab.evaluate_all_checked(requests);
  ASSERT_EQ(outcomes.size(), requests.size());
  for (const std::size_t good : {0u, 2u, 3u}) {
    EXPECT_TRUE(outcomes[good].ok()) << good << ": " << outcomes[good].error;
  }
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_NE(outcomes[1].error.find("no.such-benchmark"), std::string::npos)
      << outcomes[1].error;

  const LabMetrics metrics = lab.metrics();
  EXPECT_EQ(metrics.requests_submitted, requests.size());
  EXPECT_EQ(metrics.layout.computed, 2u);  // function affinity: mcf, sjeng
  EXPECT_EQ(metrics.solo.computed, 2u);
}

TEST(LabEngineTest, CheckedAndThrowingBatchesAgree) {
  const std::vector<EvalRequest> requests = {
      EvalRequest::solo("429.mcf", std::nullopt, Measure::kHardware),
      EvalRequest::prepare("no.such-benchmark"),
  };
  // evaluate_all rethrows the first failure in request order...
  Lab throwing(LabOptions{}.threads(1));
  EXPECT_THROW(throwing.evaluate_all(requests), std::exception);
  // ...and a checked batch on a fresh engine reports the same failure as a
  // status instead, with identical results for the surviving cells.
  Lab checked(LabOptions{}.threads(1));
  const std::vector<EvalOutcome> outcomes =
      checked.evaluate_all_checked(requests);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_EQ(throwing.solo("429.mcf", std::nullopt, Measure::kHardware),
            checked.solo("429.mcf", std::nullopt, Measure::kHardware));
}

TEST(LabEngineTest, CheckedBatchReportsMemoizedErrorToLaterRequesters) {
  Lab lab(LabOptions{}.threads(1));
  const std::vector<EvalRequest> batch = {
      EvalRequest::prepare("no.such-benchmark")};
  const std::string first_error = lab.evaluate_all_checked(batch)[0].error;
  const std::vector<EvalOutcome> again = lab.evaluate_all_checked(batch);
  EXPECT_FALSE(again[0].ok());
  EXPECT_EQ(again[0].error, first_error);
  // The failing compute ran once; the retry hit the memoized failure.
  EXPECT_EQ(lab.metrics().prepare.computed, 1u);
}

// ---- Observability ----------------------------------------------------------

TEST(LabEngineTest, MetricNamesDoNotGrowWithWorkloads) {
  // Instrument names are a fixed set: per-workload or per-pair detail
  // belongs in span args, or an N x N co-run table would mint N^2 names.
  struct EnableMetrics {
    MetricsRegistry& registry = MetricsRegistry::global();
    bool was_enabled = registry.enabled();
    EnableMetrics() { registry.set_enabled(true); }
    ~EnableMetrics() { registry.set_enabled(was_enabled); }
  } metrics;

  const std::vector<std::string> names = {"429.mcf", "458.sjeng"};
  std::vector<EvalRequest> batch;
  for (const std::string& self : names) {
    for (const std::string& peer : names) {
      batch.push_back(EvalRequest::corun(self, std::nullopt, peer,
                                         std::nullopt, Measure::kHardware));
    }
  }
  Lab lab(LabOptions{}.threads(2));
  lab.evaluate_all(batch);
  EXPECT_EQ(lab.metrics().corun.computed, 4u);

  // The dump holds instrument names and numbers only, so a workload name
  // anywhere in it sits inside an instrument name.
  const std::string dump = metrics.registry.to_json();
  for (const std::string& name : names) {
    EXPECT_EQ(dump.find(name), std::string::npos) << name << " in " << dump;
  }
}

}  // namespace
}  // namespace codelayout
