#include <algorithm>

#include "support/rng.hpp"
#include "workloads/spec.hpp"

namespace codelayout {
namespace {

constexpr std::uint32_t kEntryBytes = 24;
constexpr std::uint32_t kBranchBytes = 16;
constexpr std::uint32_t kSpinBytes = 16;
constexpr std::uint32_t kReturnBytes = 16;
constexpr std::uint32_t kDriverBodyBytes = 64;
constexpr std::uint32_t kVisitBytes = 32;

std::uint32_t rand_size(Rng& rng, std::uint32_t lo, std::uint32_t hi) {
  // Instruction-aligned block size in [lo, hi].
  const auto raw = static_cast<std::uint32_t>(rng.range(lo, hi));
  return std::max<std::uint32_t>(kInstrBytes,
                                 raw / kInstrBytes * kInstrBytes);
}

/// Builds one hot function: entry, a run of branch diamonds with one hot and
/// one cold side each, and a return block — in compiler source order, so the
/// original layout interleaves hot and cold code.
FuncId build_hot_function(Module& m, const WorkloadSpec& spec, Rng& rng,
                          const std::string& name,
                          const std::vector<FuncId>& utils,
                          const std::vector<FuncId>& cold_funcs) {
  const FuncId f = m.add_function(name);
  const BlockId entry = m.add_block(f, kEntryBytes);
  const auto diamonds = static_cast<std::uint32_t>(
      rng.range(spec.diamonds_min, spec.diamonds_max));

  BlockId prev = entry;       // falls through into the first branch
  for (std::uint32_t d = 0; d < diamonds; ++d) {
    BlockId br;
    // Optionally precede the diamond with a call-free self-looping spin
    // block (a polling/latch loop): it re-executes with no callee events in
    // between, so the trace records a long same-block run — the
    // repeat-heavy pattern tests use to exercise every kernel on real
    // repeats. The spin_prob > 0 short-circuit keeps the RNG stream of
    // spin-free specs untouched.
    if (spec.spin_prob > 0.0 && rng.chance(spec.spin_prob)) {
      const BlockId sp = m.add_block(f, kSpinBytes);
      m.add_edge(prev, sp, 1.0, /*fallthrough=*/true);
      const double back = spec.spin_repeat / (spec.spin_repeat + 1.0);
      m.add_edge(sp, sp, back);
      br = m.add_block(f, kBranchBytes);
      m.add_edge(sp, br, 1.0 - back, /*fallthrough=*/true);
    } else {
      br = m.add_block(f, kBranchBytes);
      m.add_edge(prev, br, 1.0, /*fallthrough=*/true);
    }

    // Dense code (cold_blocks_per_diamond == 0): the branch either runs the
    // hot chain or skips straight to the join — no cold blocks at all.
    if (spec.cold_blocks_per_diamond == 0) {
      std::vector<BlockId> hot_chain;
      const std::uint32_t len = rng.chance(0.3) ? 2 : 1;
      for (std::uint32_t i = 0; i < len; ++i) {
        const BlockId h = m.add_block(
            f, rand_size(rng, spec.hot_block_bytes_min,
                         spec.hot_block_bytes_max));
        if (!utils.empty() && rng.chance(spec.util_call_prob)) {
          m.add_call(h, utils[rng.below(utils.size())], 0.9);
        }
        hot_chain.push_back(h);
      }
      for (std::size_t i = 0; i + 1 < hot_chain.size(); ++i) {
        m.add_edge(hot_chain[i], hot_chain[i + 1], 1.0, /*fallthrough=*/true);
      }
      const BlockId next_br = m.add_block(
          f, d + 1 < diamonds ? kBranchBytes : kReturnBytes);
      m.add_edge(br, hot_chain.front(), spec.hot_branch_bias,
                 /*fallthrough=*/true);
      m.add_edge(br, next_br, 1.0 - spec.hot_branch_bias);
      m.add_edge(hot_chain.back(), next_br, 1.0, /*fallthrough=*/true);
      prev = next_br;
      if (d + 1 == diamonds) break;
      continue;
    }

    const bool cold_then = rng.chance(spec.cold_then_prob);
    // Source order: branch, then-side, else-side. The then-side is the
    // fall-through; the else-side is reached by the taken branch.
    std::vector<BlockId> then_side, else_side;
    auto make_hot_chain = [&] {
      std::vector<BlockId> chain;
      const std::uint32_t len = rng.chance(0.3) ? 2 : 1;
      for (std::uint32_t i = 0; i < len; ++i) {
        const BlockId h = m.add_block(
            f, rand_size(rng, spec.hot_block_bytes_min,
                         spec.hot_block_bytes_max));
        if (!utils.empty() && rng.chance(spec.util_call_prob)) {
          m.add_call(h, utils[rng.below(utils.size())], 0.9);
        }
        chain.push_back(h);
      }
      return chain;
    };
    auto make_cold_chain = [&] {
      std::vector<BlockId> chain;
      for (std::uint32_t i = 0; i < spec.cold_blocks_per_diamond; ++i) {
        const BlockId c = m.add_block(f, spec.cold_block_bytes);
        if (!cold_funcs.empty() && i == 0 && rng.chance(0.3)) {
          m.add_call(c, cold_funcs[rng.below(cold_funcs.size())],
                     spec.cold_call_prob);
        }
        chain.push_back(c);
      }
      return chain;
    };

    if (cold_then) {
      then_side = make_cold_chain();
      else_side = make_hot_chain();
    } else {
      then_side = make_hot_chain();
      else_side = make_cold_chain();
    }
    // Wire the chains.
    for (std::size_t i = 0; i + 1 < then_side.size(); ++i) {
      m.add_edge(then_side[i], then_side[i + 1], 1.0, /*fallthrough=*/true);
    }
    for (std::size_t i = 0; i + 1 < else_side.size(); ++i) {
      m.add_edge(else_side[i], else_side[i + 1], 1.0, /*fallthrough=*/true);
    }
    // Branch probabilities: the hot side is taken with hot_branch_bias.
    const double p_then = cold_then ? 1.0 - spec.hot_branch_bias
                                    : spec.hot_branch_bias;
    m.add_edge(br, then_side.front(), p_then, /*fallthrough=*/true);
    m.add_edge(br, else_side.front(), 1.0 - p_then);

    // Both sides converge on the next diamond (or the return block). The
    // else-side's last block is followed in source order by whatever comes
    // next, so it falls through; the then-side's last block must jump over
    // the else-side.
    const BlockId next_br = m.add_block(
        f, d + 1 < diamonds ? kBranchBytes : kReturnBytes);
    m.add_edge(then_side.back(), next_br, 1.0, /*fallthrough=*/false);
    m.add_edge(else_side.back(), next_br, 1.0, /*fallthrough=*/true);
    prev = next_br;
    if (d + 1 == diamonds) {
      // prev is the return block: no successors.
      break;
    }
    // prev is the next branch; continue the loop with it acting as `br`.
    // To keep the shape simple the convergence block itself branches next
    // iteration, so re-seed the loop: treat it as the "prev" that falls
    // into a fresh branch block.
  }
  return f;
}

/// A small shared utility: entry -> body -> return.
FuncId build_util_function(Module& m, Rng& rng, const std::string& name) {
  const FuncId f = m.add_function(name);
  const BlockId entry = m.add_block(f, kEntryBytes);
  const BlockId body = m.add_block(
      f, rand_size(rng, 32, 96));
  const BlockId ret = m.add_block(f, kReturnBytes);
  m.add_edge(entry, body, 1.0, /*fallthrough=*/true);
  m.add_edge(body, ret, 1.0, /*fallthrough=*/true);
  return f;
}

/// Cold code: a straight chain that is (almost) never executed.
FuncId build_cold_function(Module& m, const WorkloadSpec& spec, Rng& rng,
                           const std::string& name) {
  const FuncId f = m.add_function(name);
  std::vector<BlockId> chain;
  for (std::uint32_t i = 0; i < spec.cold_func_blocks; ++i) {
    chain.push_back(m.add_block(
        f, rand_size(rng, spec.cold_func_block_bytes / 2,
                     spec.cold_func_block_bytes * 3 / 2)));
  }
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    m.add_edge(chain[i], chain[i + 1], 1.0, /*fallthrough=*/true);
  }
  return f;
}

}  // namespace

Module build_workload(const WorkloadSpec& spec) {
  CL_CHECK(spec.phases > 0 && spec.funcs_per_phase > 0);
  Rng rng(hash_combine(spec.seed, 0x776f726b6c6f6164ULL));
  Module m(spec.name);

  // main and the per-phase drivers come first, like a program's core.
  const FuncId main_fn = m.add_function("main");
  m.set_entry_function(main_fn);

  std::vector<FuncId> drivers;
  for (std::uint32_t p = 0; p < spec.phases; ++p) {
    drivers.push_back(m.add_function("phase" + std::to_string(p) + "_driver"));
  }

  // Shared utilities.
  std::vector<FuncId> utils;
  for (std::uint32_t u = 0; u < spec.shared_funcs; ++u) {
    utils.push_back(build_util_function(m, rng, "util" + std::to_string(u)));
  }

  // A pool of cold functions created up front so hot code can call them.
  std::vector<FuncId> cold_pool;
  const std::uint32_t up_front_cold = spec.cold_funcs / 4;
  for (std::uint32_t c = 0; c < up_front_cold; ++c) {
    cold_pool.push_back(
        build_cold_function(m, spec, rng, "cold" + std::to_string(c)));
  }

  // Hot functions, interleaved in program order with the remaining cold
  // functions so the original layout scatters the hot working set. The
  // phase assignment along source order starts phase-major and is shuffled
  // by `phase_scatter` random swaps per function.
  const std::uint32_t hot_total = spec.phases * spec.funcs_per_phase;
  const std::uint32_t cold_rest = spec.cold_funcs - up_front_cold;
  std::vector<std::uint32_t> phase_of(hot_total);
  for (std::uint32_t i = 0; i < hot_total; ++i) {
    phase_of[i] = i / spec.funcs_per_phase;  // phase-major base order
  }
  const auto swaps =
      static_cast<std::uint32_t>(spec.phase_scatter * hot_total);
  for (std::uint32_t k = 0; k < swaps; ++k) {
    std::swap(phase_of[rng.below(hot_total)], phase_of[rng.below(hot_total)]);
  }
  std::vector<std::vector<FuncId>> phase_funcs(spec.phases);
  std::uint32_t cold_created = 0;
  for (std::uint32_t i = 0; i < hot_total; ++i) {
    const std::uint32_t p = phase_of[i];
    const auto idx = phase_funcs[p].size();
    // Built via append rather than `"p" + ...` to dodge a GCC 12 -O3
    // -Wrestrict false positive (GCC PR105651) in std::operator+.
    std::string hot_name = "p";
    hot_name += std::to_string(p);
    hot_name += "_f";
    hot_name += std::to_string(idx);
    phase_funcs[p].push_back(
        build_hot_function(m, spec, rng, hot_name, utils, cold_pool));
    // Sprinkle a fraction of the cold functions between hot ones, evenly
    // (C/C++-style program order); dense Fortran-style modules keep hot
    // code contiguous.
    if (spec.interleave_cold_funcs) {
      const auto interleaved_total = static_cast<std::uint32_t>(
          spec.cold_interleave_fraction * cold_rest);
      const std::uint32_t want =
          static_cast<std::uint32_t>((static_cast<std::uint64_t>(i + 1) *
                                      interleaved_total) / hot_total);
      while (cold_created < want) {
        build_cold_function(
            m, spec, rng,
            "cold" + std::to_string(up_front_cold + cold_created));
        ++cold_created;
      }
    }
  }
  while (cold_created < cold_rest) {
    build_cold_function(m, spec, rng,
                        "cold" + std::to_string(up_front_cold + cold_created));
    ++cold_created;
  }

  // Drivers: entry -> body (calls every hot function of the phase with
  // call_prob) -> latch loops the body `inner_repeat` times on average.
  for (std::uint32_t p = 0; p < spec.phases; ++p) {
    const FuncId d = drivers[p];
    const BlockId entry = m.add_block(d, kEntryBytes);
    const BlockId body = m.add_block(d, kDriverBodyBytes);
    const BlockId ret = m.add_block(d, kReturnBytes);
    for (FuncId f : phase_funcs[p]) m.add_call(body, f, spec.call_prob);
    m.add_edge(entry, body, 1.0, /*fallthrough=*/true);
    const double back = spec.inner_repeat / (spec.inner_repeat + 1.0);
    m.add_edge(body, ret, 1.0 - back, /*fallthrough=*/true);
    m.add_edge(body, body, back);
  }

  // main: a ring of per-phase visit blocks; each visit calls its driver and
  // self-loops `phase_repeat` times on average, then moves to the next
  // phase; the ring closes so phases recur until the event budget stops the
  // run.
  {
    const BlockId entry = m.add_block(main_fn, kEntryBytes);
    std::vector<BlockId> visits;
    for (std::uint32_t p = 0; p < spec.phases; ++p) {
      const BlockId v = m.add_block(main_fn, kVisitBytes);
      m.add_call(v, drivers[p], 1.0);
      visits.push_back(v);
    }
    const BlockId ret = m.add_block(main_fn, kReturnBytes);
    m.add_edge(entry, visits.front(), 1.0, /*fallthrough=*/true);
    const double stay = spec.phase_repeat / (spec.phase_repeat + 1.0);
    for (std::uint32_t p = 0; p < spec.phases; ++p) {
      const BlockId next =
          p + 1 < spec.phases ? visits[p + 1] : visits[0];
      m.add_edge(visits[p], visits[p], stay);
      if (p + 1 < spec.phases) {
        m.add_edge(visits[p], next, 1.0 - stay, /*fallthrough=*/true);
      } else {
        // Close the ring; a sliver of probability reaches the return block
        // so main is well-formed, but in practice the event budget ends the
        // run first.
        m.add_edge(visits[p], next, (1.0 - stay) * 0.999);
        m.add_edge(visits[p], ret, (1.0 - stay) * 0.001,
                   /*fallthrough=*/true);
      }
    }
  }

  m.validate();
  return m;
}

}  // namespace codelayout
