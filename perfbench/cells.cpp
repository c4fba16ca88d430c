#include "cells.hpp"

#include <bit>
#include <cstdio>
#include <set>

#include "cache/hierarchy.hpp"
#include "harness/lab.hpp"
#include "support/rng.hpp"
#include "workloads/spec.hpp"

namespace perfbench {

using namespace codelayout;
using codelayout::service::CorunPartyRequest;
using codelayout::service::JobKind;
using codelayout::service::JobRequest;
using codelayout::service::JobResponse;

std::vector<EvalRequest> table2_requests() {
  // Mirrors table2_rows(): for each program and optimizer, the baseline and
  // optimized co-run against every probe under both measurement flavours.
  const auto& programs = selected_benchmarks();
  std::vector<EvalRequest> out;
  for (const std::string& name : programs) {
    for (const Optimizer opt : {kFuncAffinity, kBBAffinity, kFuncTrg}) {
      if (opt.granularity == Granularity::kBlock &&
          !Lab::bb_reordering_supported(name)) {
        continue;
      }
      for (const std::string& probe : programs) {
        for (const Measure m : {Measure::kHardware, Measure::kSimulator}) {
          out.push_back(
              EvalRequest::corun(name, std::nullopt, probe, std::nullopt, m));
          out.push_back(EvalRequest::corun(name, opt, probe, std::nullopt, m));
        }
      }
    }
  }
  return out;
}

std::vector<EvalRequest> fig5_requests() {
  // Mirrors fig5_rows().
  std::vector<EvalRequest> out;
  for (const std::string& name : selected_benchmarks()) {
    out.push_back(EvalRequest::solo(name, std::nullopt, Measure::kHardware));
    out.push_back(EvalRequest::solo(name, kFuncAffinity, Measure::kHardware));
    if (Lab::bb_reordering_supported(name)) {
      out.push_back(EvalRequest::solo(name, kBBAffinity, Measure::kHardware));
    }
  }
  return out;
}

std::size_t unique_cells(const std::vector<EvalRequest>& requests) {
  return std::set<EvalRequest>(requests.begin(), requests.end()).size();
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a_bytes(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

namespace {

std::uint64_t mix(std::uint64_t h, double v) {
  return fnv1a(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t mix(std::uint64_t h, const Table2Cell& cell) {
  h = fnv1a(h, cell.available ? 1 : 0);
  h = mix(h, cell.speedup);
  h = mix(h, cell.miss_reduction_hw);
  return mix(h, cell.miss_reduction_sim);
}

}  // namespace

std::vector<RowChecksum> table2_checksums(const std::vector<Table2Row>& rows) {
  std::vector<RowChecksum> out;
  for (const Table2Row& row : rows) {
    std::uint64_t h = fnv1a_bytes(kFnvSeed, row.name);
    h = mix(h, row.func_affinity);
    h = mix(h, row.bb_affinity);
    h = mix(h, row.func_trg);
    out.push_back({row.name, h});
  }
  return out;
}

std::vector<RowChecksum> fig5_checksums(const std::vector<Fig5Row>& rows) {
  std::vector<RowChecksum> out;
  for (const Fig5Row& row : rows) {
    std::uint64_t h = fnv1a_bytes(kFnvSeed, row.name);
    h = fnv1a(h, row.bb_supported ? 1 : 0);
    h = mix(h, row.func_speedup);
    h = mix(h, row.func_miss_reduction);
    h = mix(h, row.bb_speedup);
    h = mix(h, row.bb_miss_reduction);
    out.push_back({row.name, h});
  }
  return out;
}

std::vector<JobRequest> service_universe() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : spec_suite()) names.push_back(spec.name);
  const std::size_t n = names.size();
  const HierarchySpec l2 = parse_hierarchy(kL2Hierarchy);

  std::vector<JobRequest> out;
  auto single = [&](JobKind kind, const std::string& name,
                    std::optional<Optimizer> opt) {
    JobRequest r;
    r.kind = kind;
    r.workload = name;
    r.optimizer = opt;
    out.push_back(std::move(r));
  };
  auto corun = [&](const std::string& self, std::optional<Optimizer> opt,
                   const std::string& peer, const HierarchySpec& h) {
    JobRequest r;
    r.kind = JobKind::kCorun;
    r.parties = {CorunPartyRequest{self, opt, 1.0},
                 CorunPartyRequest{peer, std::nullopt, 1.0}};
    r.hierarchy = h;
    out.push_back(std::move(r));
  };
  for (std::size_t i = 0; i < n; ++i) {
    single(JobKind::kSolo, names[i], std::nullopt);
    single(JobKind::kSolo, names[i], kFuncAffinity);
    single(JobKind::kLayout, names[i], kFuncAffinity);
    single(JobKind::kLayout, names[i], kFuncTrg);
    corun(names[i], std::nullopt, names[(i + 1) % n], HierarchySpec{});
    corun(names[i], kFuncAffinity, names[(i + 5) % n], HierarchySpec{});
    corun(names[i], std::nullopt, names[(i + 2) % n], l2);
  }
  // Co-schedule: overlapping six-program pools onto three SMT pair slots,
  // answered by the predictor alone.
  for (std::size_t k = 0; k < 10; ++k) {
    JobRequest r;
    r.kind = JobKind::kCoSchedule;
    for (std::size_t j = 0; j < 6; ++j) {
      r.parties.push_back(
          CorunPartyRequest{names[(3 * k + j) % n], std::nullopt, 1.0});
    }
    r.slots = 3;
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<std::size_t> service_stream(const std::vector<JobRequest>& universe,
                                        std::uint64_t seed,
                                        std::uint64_t round) {
  // Layout jobs lead, so the cold layout work (preparing a program, running
  // its locality model) falls on them whatever the order, and every other
  // job's latency is its own execution. Without the split, which job pays a
  // program's cold start changes with the order, and so does the median.
  Rng rng = Rng(seed).fork(round);
  std::vector<std::size_t> layouts, rest;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    (universe[i].kind == JobKind::kLayout ? layouts : rest).push_back(i);
  }
  rng.shuffle(layouts);
  rng.shuffle(rest);
  std::vector<std::size_t> fresh = std::move(layouts);
  fresh.insert(fresh.end(), rest.begin(), rest.end());
  // A repeat targets a job at least three fresh jobs back, so with two
  // connections in flight its first copy has normally completed.
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    out.push_back(fresh[k]);
    if ((k + 1) % 3 == 0 && k >= 3) out.push_back(fresh[rng.below(k - 2)]);
  }
  return out;
}

std::string request_key(const JobRequest& request) {
  return hex64(fnv1a_bytes(kFnvSeed, request.canonical_key()));
}

std::uint64_t reply_checksum(JobResponse response) {
  response.id = 0;
  response.receipt = {};
  return fnv1a_bytes(kFnvSeed,
                     service::encode_response_payload(response));
}

}  // namespace perfbench
