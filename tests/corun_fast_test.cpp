// Equivalence suite for the co-run engine (DESIGN.md §11).
//
// The production engine replays rounds through fetch plans and the packed
// set-associative cache. An independent per-event reference engine —
// written out longhand against its own LRU cache implementation, with the
// same namespaces, credit arithmetic, stall debts, and forked RNG streams —
// must agree bit for bit on every SimResult field, including the
// RNG-stream-sensitive wrong-path miss counts, over the whole golden
// workload suite, many-party mixes with fractional speeds, degenerate cache
// geometries and private L1s over a shared L2, under every measurement
// flavour. The solo simulator is checked against the same reference run with
// one party.
#include <algorithm>
#include <cstdint>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/icache_sim.hpp"
#include "exec/interpreter.hpp"
#include "layout/layout.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workloads/spec.hpp"

namespace codelayout {
namespace {

// ---- Independent per-event reference engine ---------------------------------

/// A from-scratch set-associative true-LRU cache: per-set recency-ordered
/// vectors, linear probes. Shares no code with SetAssocCache.
class RefCache {
 public:
  explicit RefCache(const CacheGeometry& geom)
      : sets_(geom.sets()), assoc_(geom.associativity), ways_(geom.sets()) {}

  /// Touches `line`, installing it on a miss; returns true on a hit.
  bool access(std::uint64_t line) {
    auto& ways = ways_[line % sets_];
    const auto it = std::find(ways.begin(), ways.end(), line);
    const bool hit = it != ways.end();
    if (hit) ways.erase(it);
    ways.insert(ways.begin(), line);
    if (ways.size() > assoc_) ways.pop_back();
    return hit;
  }

 private:
  std::uint64_t sets_;
  std::size_t assoc_;
  std::vector<std::vector<std::uint64_t>> ways_;
};

/// The caches one reference stream fetches through: its L1 (one L1 shared by
/// every party under a flat spec) and, with an L2 spec, the L2 all parties
/// share.
struct RefLevels {
  RefCache* l1;
  RefCache* l2;  ///< nullptr under a flat spec

  /// Fetches `line`: an L1 miss of any kind (demand, prefetch or wrong path)
  /// goes on to the L2. Returns true on an L1 hit.
  bool fetch(std::uint64_t line) const {
    if (l1->access(line)) return true;
    if (l2 != nullptr) l2->access(line);
    return false;
  }
};

/// The reference per-event co-run stream: flat symbols, module/layout
/// lookups per event, stall debt, and the stream's own forked RNG.
class RefStream {
 public:
  RefStream(const Module& module, const CodeLayout& layout, const Trace& trace,
            std::uint64_t line_namespace, const SimOptions& options,
            std::uint64_t rng_stream)
      : module_(&module),
        layout_(&layout),
        symbols_(trace.symbols()),
        namespace_(line_namespace),
        options_(options),
        rng_(Rng(options.seed).fork(rng_stream)) {}

  bool step(const RefLevels& levels) {
    if (debt_ >= 1.0) {
      debt_ -= 1.0;
      return false;
    }
    const BlockId b(symbols_[pos_]);
    const BasicBlock& bb = module_->block(b);
    const auto span = layout_->lines_of(b, options_.geometry().line_bytes);
    const auto& place = layout_->placement(b);
    ++stats_.blocks;
    stats_.instructions += place.bytes / kInstrBytes;
    stats_.overhead_instructions += (place.bytes - bb.size_bytes) / kInstrBytes;
    for (std::uint32_t i = 0; i < span.line_count; ++i) {
      const std::uint64_t line = namespace_ + span.first_line + i;
      ++stats_.line_probes;
      if (!levels.l1->access(line)) {
        ++stats_.demand_misses;
        debt_ += options_.miss_stall_blocks;
        // Only demand misses count at the L2.
        if (levels.l2 != nullptr) {
          ++stats_.l2_probes;
          if (!levels.l2->access(line)) ++stats_.l2_misses;
        }
        if (options_.next_line_prefetch) levels.fetch(line + 1);
      }
    }
    if (options_.wrong_path_rate > 0.0 && bb.successors.size() > 1 &&
        rng_.chance(options_.wrong_path_rate)) {
      const std::uint64_t line = namespace_ + span.first_line + span.line_count;
      if (!levels.fetch(line)) ++stats_.wrong_path_misses;
    }
    if (++pos_ == symbols_.size()) {
      pos_ = 0;
      return true;
    }
    return false;
  }

  [[nodiscard]] const SimResult& stats() const { return stats_; }

 private:
  const Module* module_;
  const CodeLayout* layout_;
  std::span<const Symbol> symbols_;
  std::uint64_t namespace_;
  SimOptions options_;
  Rng rng_;
  std::size_t pos_ = 0;
  double debt_ = 0.0;
  SimResult stats_;
};

struct RefParty {
  const Module* module;
  const CodeLayout* layout;
  const Trace* trace;
  double speed = 1.0;
};

std::vector<SimResult> reference_corun(const std::vector<RefParty>& parties,
                                       const SimOptions& options) {
  // Flat spec: every party fetches through one shared L1. With an L2, each
  // party has a private L1 and all of them share the L2.
  const std::optional<CacheGeometry>& l2_geom = options.hierarchy.l2;
  std::vector<RefCache> l1s(l2_geom ? parties.size() : 1,
                            RefCache(options.geometry()));
  std::optional<RefCache> l2;
  if (l2_geom) l2.emplace(*l2_geom);
  std::vector<RefLevels> levels;
  std::vector<RefStream> streams;
  streams.reserve(parties.size());
  std::vector<double> credit(parties.size(), 0.0);
  for (std::size_t i = 0; i < parties.size(); ++i) {
    levels.push_back({&l1s[l2 ? i : 0], l2 ? &*l2 : nullptr});
    streams.emplace_back(*parties[i].module, *parties[i].layout,
                         *parties[i].trace, static_cast<std::uint64_t>(i) << 40,
                         options, /*rng_stream=*/i + 1);
  }
  for (;;) {
    const bool done = streams[0].step(levels[0]);
    for (std::size_t i = 1; i < parties.size(); ++i) {
      credit[i] += parties[i].speed;
      while (credit[i] >= 1.0) {
        streams[i].step(levels[i]);
        credit[i] -= 1.0;
      }
    }
    if (done) break;
  }
  std::vector<SimResult> results;
  results.reserve(streams.size());
  for (const RefStream& s : streams) results.push_back(s.stats());
  return results;
}

// ---- Fixtures ---------------------------------------------------------------

/// First `n` events of `t`, untrimmed.
Trace prefix_events(const Trace& t, std::size_t n) {
  Trace out(t.granularity());
  for (const Symbol s : t.symbols().first(std::min(n, t.size()))) {
    out.push_symbol(s);
  }
  return out;
}

/// A suite workload with the spin knob turned up: long same-block runs, so
/// streams sit on one block across many rounds.
WorkloadSpec spin_variant(const std::string& base, double prob,
                          double repeat) {
  WorkloadSpec spec = find_spec(base);
  spec.name = base + "+spin";
  spec.spin_prob = prob;
  spec.spin_repeat = repeat;
  return spec;
}

struct Prepared {
  Module module;
  CodeLayout layout;
  FetchPlan plan;  ///< for 64-byte lines, the line size of every test here
  Trace trace;

  Prepared(const WorkloadSpec& spec, std::uint64_t seed, std::uint64_t events,
           std::size_t prefix)
      : module(build_workload(spec)),
        layout(original_layout(module)),
        plan(module, layout, kL1I.line_bytes),
        trace(prefix_events(
            profile(module, seed, {.max_events = events, .max_call_depth = 64})
                .block_trace,
            prefix)) {}

  [[nodiscard]] CorunSpec::Party party(double speed = 1.0) const {
    return CorunSpec::Party{&plan, &trace, speed};
  }
  [[nodiscard]] RefParty ref_party(double speed = 1.0) const {
    return RefParty{&module, &layout, &trace, speed};
  }
};

void append_mismatches(std::vector<std::string>& out, const std::string& label,
                       const SimResult& got, const SimResult& want) {
  const auto check = [&](const char* what, std::uint64_t g, std::uint64_t w) {
    if (g != w) {
      out.push_back(label + ": " + what + " " + std::to_string(g) +
                    " != reference " + std::to_string(w));
    }
  };
  check("blocks", got.blocks, want.blocks);
  check("instructions", got.instructions, want.instructions);
  check("overhead_instructions", got.overhead_instructions,
        want.overhead_instructions);
  check("line_probes", got.line_probes, want.line_probes);
  check("demand_misses", got.demand_misses, want.demand_misses);
  check("wrong_path_misses", got.wrong_path_misses, want.wrong_path_misses);
  check("l2_probes", got.l2_probes, want.l2_probes);
  check("l2_misses", got.l2_misses, want.l2_misses);
}

/// The measurement flavours every oracle runs under: the two instruments,
/// and each of the hardware proxy's flags alone.
struct NamedOptions {
  const char* name;
  SimOptions options;
};

std::vector<NamedOptions> flavours() {
  SimOptions prefetch;
  prefetch.next_line_prefetch = true;
  SimOptions wrong_path;
  wrong_path.wrong_path_rate = hardware_proxy_options().wrong_path_rate;
  return {{"sim", SimOptions{}},
          {"hw", hardware_proxy_options()},
          {"prefetch", prefetch},
          {"wrong-path", wrong_path}};
}

void expect_sim_equal(const SimResult& got, const SimResult& want) {
  EXPECT_EQ(got.blocks, want.blocks);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.overhead_instructions, want.overhead_instructions);
  EXPECT_EQ(got.line_probes, want.line_probes);
  EXPECT_EQ(got.demand_misses, want.demand_misses);
  EXPECT_EQ(got.wrong_path_misses, want.wrong_path_misses);
  EXPECT_EQ(got.l2_probes, want.l2_probes);
  EXPECT_EQ(got.l2_misses, want.l2_misses);
}

// ---- Whole-suite equivalence ------------------------------------------------

/// Runs `check(spec, failures)` for every suite workload on a pool and
/// reports the collected mismatches.
template <typename Check>
void for_each_suite_workload(Check check) {
  ThreadPool pool(ThreadPool::default_threads());
  std::mutex mu;
  std::vector<std::string> failures;
  std::vector<std::future<void>> pending;
  for (const WorkloadSpec& spec : spec_suite()) {
    pending.push_back(pool.submit([&spec, &check, &mu, &failures] {
      std::vector<std::string> local;
      check(spec, local);
      if (!local.empty()) {
        const std::lock_guard<std::mutex> lock(mu);
        for (std::string& f : local) failures.push_back(std::move(f));
      }
    }));
  }
  for (auto& p : pending) p.get();
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

TEST(CorunFast, GoldenSuiteVsSpinPeerMatchesPerEventReplay) {
  // Every suite workload co-run against one shared spin-heavy peer at a
  // fractional speed, under every measurement flavour.
  const Prepared peer(spin_variant("403.gcc", 0.7, 48.0), 77, 40'000, 12'000);
  for_each_suite_workload([&peer](const WorkloadSpec& spec,
                                  std::vector<std::string>& failures) {
    const Prepared self(spec, 11, 20'000, 6'000);
    for (const NamedOptions& flavour : flavours()) {
      const double peer_speed = 1.3;
      const CorunResult got = simulate_corun(
          self.module, self.layout, self.trace, peer.module, peer.layout,
          peer.trace, flavour.options, peer_speed);
      const std::vector<SimResult> want = reference_corun(
          {self.ref_party(), peer.ref_party(peer_speed)}, flavour.options);
      const std::string label = spec.name + " [" + flavour.name + "]";
      append_mismatches(failures, label + " self", got.self, want[0]);
      append_mismatches(failures, label + " peer", got.peer, want[1]);
    }
  });
}

// ---- Solo replay ------------------------------------------------------------

TEST(CorunFast, SoloMatchesOnePartyPerEventReplay) {
  // A one-party reference co-run is the solo replay: its stall steps fetch
  // nothing, its namespace is 0 and its RNG stream is fork(1).
  for_each_suite_workload([](const WorkloadSpec& spec,
                             std::vector<std::string>& failures) {
    const Prepared self(spec, 12, 20'000, 8'000);
    for (const NamedOptions& flavour : flavours()) {
      append_mismatches(failures, spec.name + " [" + flavour.name + "] solo",
                        simulate_solo(self.plan, self.trace, flavour.options),
                        reference_corun({self.ref_party()},
                                        flavour.options)[0]);
    }
  });
}

// ---- Many-party mixes with fractional speeds --------------------------------

TEST(CorunFast, ManyPartySpinMixesMatchPerEventReplay) {
  const Prepared a(spin_variant("470.lbm", 0.7, 48.0), 21, 20'000, 5'000);
  const Prepared b(spin_variant("403.gcc", 0.6, 32.0), 22, 30'000, 10'000);
  const Prepared c(spin_variant("416.gamess", 0.5, 24.0), 23, 30'000, 10'000);
  const Prepared d(spin_variant("429.mcf", 0.7, 40.0), 24, 30'000, 10'000);
  const Prepared* peers[] = {&b, &c, &d};
  const double speeds[] = {0.5, 1.7, 0.25};

  for (const std::size_t parties : {2u, 3u, 4u}) {
    for (const bool hw : {false, true}) {
      CorunSpec spec;
      spec.options = hw ? hardware_proxy_options() : SimOptions{};
      spec.parties = {a.party()};
      std::vector<RefParty> ref_parties = {a.ref_party()};
      for (std::size_t i = 0; i + 1 < parties; ++i) {
        spec.parties.push_back(peers[i]->party(speeds[i]));
        ref_parties.push_back(peers[i]->ref_party(speeds[i]));
      }
      const auto got = simulate_corun(spec);
      const auto want = reference_corun(ref_parties, spec.options);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("parties=" + std::to_string(parties) +
                     (hw ? " [hw]" : " [sim]") + " party " +
                     std::to_string(i));
        expect_sim_equal(got[i], want[i]);
      }
    }
  }
}

TEST(CorunFast, FastPeerSpeedMatchesPerEventReplay) {
  // speed > 1 makes peers take several steps per round.
  const Prepared a(spin_variant("470.lbm", 0.7, 48.0), 31, 20'000, 4'000);
  const Prepared b(spin_variant("403.gcc", 0.7, 48.0), 32, 30'000, 12'000);
  const SimOptions options = hardware_proxy_options();
  const double speed = 3.0;
  const CorunResult got =
      simulate_corun(a.module, a.layout, a.trace, b.module, b.layout, b.trace,
                     options, speed);
  const auto want =
      reference_corun({a.ref_party(), b.ref_party(speed)}, options);
  expect_sim_equal(got.self, want[0]);
  expect_sim_equal(got.peer, want[1]);
}

// ---- Degenerate geometries --------------------------------------------------

TEST(CorunFast, DegenerateGeometriesMatchPerEventReplay) {
  const Prepared a(spin_variant("470.lbm", 0.6, 32.0), 41, 20'000, 4'000);
  const Prepared b(spin_variant("416.gamess", 0.6, 32.0), 42, 20'000, 8'000);

  const CacheGeometry geometries[] = {
      {256, 4, 64},   // a single set: everything conflicts
      {512, 1, 64},   // direct-mapped
      {1024, 8, 64},  // assoc > 4: the wide packed cache path
      {8192, 4, 64},  // the flat 4-way front off the paper's size
      {2048, 2, 64},  // a packed-4 chain L1 with assoc < 4
  };
  for (const CacheGeometry& geom : geometries) {
    for (const NamedOptions& flavour : flavours()) {
      SimOptions options = flavour.options;
      options.hierarchy.l1 = geom;
      options.hierarchy.l1.validate();
      SCOPED_TRACE(std::string("[") + flavour.name + "] sets=" +
                   std::to_string(geom.sets()) +
                   " assoc=" + std::to_string(geom.associativity));
      const CorunResult got =
          simulate_corun(a.module, a.layout, a.trace, b.module, b.layout,
                         b.trace, options, 1.7);
      const auto want =
          reference_corun({a.ref_party(), b.ref_party(1.7)}, options);
      expect_sim_equal(got.self, want[0]);
      expect_sim_equal(got.peer, want[1]);
      expect_sim_equal(simulate_solo(b.plan, b.trace, options),
                       reference_corun({b.ref_party()}, options)[0]);
    }
  }
}

// ---- Private L1s over a shared L2 -------------------------------------------

TEST(CorunFast, SharedL2MatchesPerEventReplay) {
  // Each party fetches through its own L1, and every L1 miss (demand,
  // prefetch or wrong path) goes on to the one L2 they share. The one-set
  // shape keeps the L2 under constant contention, so a per-party L2 or a
  // prefetch that stops at the L1 changes the counts.
  const Prepared a(find_spec("403.gcc"), 61, 20'000, 6'000);
  const Prepared b(spin_variant("416.gamess", 0.5, 24.0), 62, 30'000, 8'000);
  const Prepared c(find_spec("471.omnetpp"), 63, 30'000, 8'000);
  for (const char* shape : {"32K/4/64+l2=256K/8/64", "16K/2/64+l2=256K/8/64",
                            "256/4/64+l2=1K/16/64"}) {
    for (const NamedOptions& flavour : flavours()) {
      SimOptions options = flavour.options;
      options.hierarchy = parse_hierarchy(shape);
      SCOPED_TRACE(std::string("[") + flavour.name + "] " + shape);

      const CorunResult two = simulate_corun(a.plan, a.trace, b.plan, b.trace,
                                             options, 1.7);
      const auto want_two =
          reference_corun({a.ref_party(), b.ref_party(1.7)}, options);
      expect_sim_equal(two.self, want_two[0]);
      expect_sim_equal(two.peer, want_two[1]);

      const auto three = simulate_corun(
          CorunSpec{{a.party(), b.party(0.5), c.party(1.3)}, options});
      const auto want_three = reference_corun(
          {a.ref_party(), b.ref_party(0.5), c.ref_party(1.3)}, options);
      ASSERT_EQ(three.size(), want_three.size());
      for (std::size_t i = 0; i < three.size(); ++i) {
        SCOPED_TRACE("three parties, party " + std::to_string(i));
        expect_sim_equal(three[i], want_three[i]);
      }

      expect_sim_equal(simulate_solo(c.plan, c.trace, options),
                       reference_corun({c.ref_party()}, options)[0]);
    }
  }
}

// ---- Entry points -----------------------------------------------------------

TEST(CorunFast, EntryPointsAreBitIdentical) {
  // The N-party spec, the two-way plan overload, and the two-way
  // module/layout overload all drive the same engine.
  const Prepared a(spin_variant("470.lbm", 0.7, 48.0), 51, 20'000, 5'000);
  const Prepared b(spin_variant("403.gcc", 0.7, 48.0), 52, 20'000, 8'000);
  const SimOptions options = hardware_proxy_options();

  const std::vector<SimResult> spec =
      simulate_corun(CorunSpec{{a.party(), b.party(1.3)}, options});
  const CorunResult planned =
      simulate_corun(a.plan, a.trace, b.plan, b.trace, options, 1.3);
  const CorunResult direct = simulate_corun(
      a.module, a.layout, a.trace, b.module, b.layout, b.trace, options, 1.3);
  ASSERT_EQ(spec.size(), 2u);
  EXPECT_EQ(planned.self, spec[0]);
  EXPECT_EQ(planned.peer, spec[1]);
  EXPECT_EQ(direct.self, spec[0]);
  EXPECT_EQ(direct.peer, spec[1]);
}

}  // namespace
}  // namespace codelayout
