#include <cstring>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "ir/builder.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "trace/io.hpp"
#include "trace/prune.hpp"
#include "trace/trace.hpp"

namespace codelayout {
namespace {

using testing::make_trace;

TEST(Trace, TrimmingRemovesConsecutiveDuplicates) {
  const Trace t = make_trace({1, 1, 2, 2, 2, 3, 1, 1});
  const Trace trimmed = t.trimmed();
  EXPECT_EQ(trimmed, make_trace({1, 2, 3, 1}));
  EXPECT_TRUE(trimmed.is_trimmed());
  EXPECT_FALSE(t.is_trimmed());
}

TEST(Trace, TrimmedOfEmptyIsEmpty) {
  const Trace t(Trace::Granularity::kBlock);
  EXPECT_TRUE(t.trimmed().empty());
  EXPECT_TRUE(t.is_trimmed());
}

TEST(Trace, TrimIsIdempotent) {
  const Trace t = make_trace({5, 5, 1, 3, 3, 5});
  EXPECT_EQ(t.trimmed(), t.trimmed().trimmed());
}

TEST(Trace, DistinctAndSymbolSpace) {
  const Trace t = make_trace({0, 7, 3, 7, 0});
  EXPECT_EQ(t.distinct_count(), 3u);
  EXPECT_EQ(t.symbol_space(), 8u);
  EXPECT_EQ(Trace(Trace::Granularity::kBlock).symbol_space(), 0u);
}

TEST(Trace, OccurrenceCounts) {
  const Trace t = make_trace({2, 0, 2, 2});
  const auto counts = t.occurrence_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 3u);
}

TEST(Trace, TypedAccessors) {
  Trace t(Trace::Granularity::kFunction);
  t.push(FuncId(4));
  EXPECT_EQ(t.function_at(0), FuncId(4));
  EXPECT_FALSE(t.is_block());
}

TEST(Trace, ProjectToFunctionsCollapsesRuns) {
  ModuleBuilder mb("p");
  auto f = mb.function("f");
  const auto fb = f.chain(2, 16);
  auto g = mb.function("g");
  const auto gb = g.chain(1, 16);
  const Module m = std::move(mb).build();

  Trace blocks(Trace::Granularity::kBlock);
  blocks.push(fb[0]);
  blocks.push(fb[1]);  // same function: collapses
  blocks.push(gb[0]);
  blocks.push(fb[0]);
  const Trace funcs = project_to_functions(blocks, m);
  ASSERT_EQ(funcs.size(), 3u);
  EXPECT_EQ(funcs.function_at(0), m.find_function("f"));
  EXPECT_EQ(funcs.function_at(1), m.find_function("g"));
  EXPECT_EQ(funcs.function_at(2), m.find_function("f"));
}

// ---------- pruning -----------------------------------------------------------

TEST(Prune, KeepsHottestSymbols) {
  // 1 appears 4x, 2 appears 3x, 3 appears 1x.
  const Trace t = make_trace({1, 2, 1, 3, 1, 2, 1, 2});
  const PruneResult r = prune_to_hot(t, 2);
  EXPECT_EQ(r.hot_set, (std::vector<Symbol>{1, 2}));
  EXPECT_EQ(r.kept_events, 7u);
  EXPECT_EQ(r.total_events, 8u);
  EXPECT_NEAR(r.kept_fraction(), 7.0 / 8, 1e-12);
  // 3 is gone; result re-trimmed.
  for (Symbol s : r.trace.symbols()) EXPECT_NE(s, 3u);
}

TEST(Prune, TieBreaksBySymbolValue) {
  const Trace t = make_trace({5, 4, 5, 4});
  const PruneResult r = prune_to_hot(t, 1);
  EXPECT_EQ(r.hot_set, (std::vector<Symbol>{4}));
}

TEST(Prune, BudgetLargerThanAlphabetKeepsEverything) {
  const Trace t = make_trace({1, 2, 3});
  const PruneResult r = prune_to_hot(t, 100);
  EXPECT_DOUBLE_EQ(r.kept_fraction(), 1.0);
  EXPECT_EQ(r.trace, t);
}

TEST(Prune, ResultIsTrimmed) {
  // Removing 9 makes the two 1s adjacent; they must collapse.
  const Trace t = make_trace({1, 9, 1, 2});
  const PruneResult r = prune_to_hot(t, 2);
  EXPECT_TRUE(r.trace.is_trimmed());
  EXPECT_EQ(r.trace, make_trace({1, 2}));
}

TEST(Prune, PaperClaimHoldsOnSkewedTrace) {
  // On a hot-loop dominated trace, a small hot set keeps >90% of events
  // (Sec. II-F).
  Rng rng(7);
  Trace t(Trace::Granularity::kBlock);
  for (int i = 0; i < 20000; ++i) {
    t.push_symbol(static_cast<Symbol>(rng.zipf(500, 2.0)));
  }
  const PruneResult r = prune_to_hot(t, 50);
  EXPECT_GT(r.kept_fraction(), 0.9);
}

// ---------- sampling ----------------------------------------------------------

TEST(Sample, StrideEqualWindowKeepsAll) {
  const Trace t = make_trace({1, 2, 3, 4, 5, 6});
  EXPECT_EQ(sample_windows(t, 3, 3).size(), 6u);
}

TEST(Sample, KeepsWindowsOnly) {
  const Trace t = make_trace({1, 2, 3, 4, 5, 6, 7, 8});
  const Trace s = sample_windows(t, 2, 4);
  // windows [0,1] and [4,5]: 1 2 5 6
  EXPECT_EQ(s, make_trace({1, 2, 5, 6}));
}

TEST(Sample, RejectsStrideBelowWindow) {
  const Trace t = make_trace({1, 2});
  EXPECT_THROW(sample_windows(t, 4, 2), ContractError);
}

// ---------- IO ----------------------------------------------------------------

TEST(TraceIo, RunLengthPairsRoundtrip) {
  // The v2 stream stores one (symbol, length) varint pair per maximal run
  // after a 28-byte header whose last field is the run count.
  const Trace t = make_trace({1, 1, 1, 2, 3, 3, 1});
  std::stringstream ss;
  write_trace(ss, t);
  const std::string bytes = ss.str();
  ASSERT_EQ(bytes.size(), 28u + 8u);
  std::uint64_t runs = 0;
  std::memcpy(&runs, bytes.data() + 20, sizeof(runs));
  EXPECT_EQ(runs, 4u);
  EXPECT_EQ(bytes.substr(28), std::string("\x01\x03\x02\x01\x03\x02\x01\x01"));
  EXPECT_EQ(read_trace(ss), t);
}

TEST(TraceIo, EmptyTraceRoundtrip) {
  const Trace t(Trace::Granularity::kBlock);
  std::stringstream ss;
  write_trace(ss, t);
  EXPECT_EQ(ss.str().size(), 28u);
  EXPECT_EQ(read_trace(ss), t);
}

TEST(TraceIo, StreamRoundtrip) {
  Trace t(Trace::Granularity::kFunction);
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    t.push_symbol(static_cast<Symbol>(rng.below(64)));
  }
  std::stringstream ss;
  write_trace(ss, t);
  const Trace back = read_trace(ss);
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.granularity(), Trace::Granularity::kFunction);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream ss;
  ss << "not a trace file at all";
  EXPECT_THROW(read_trace(ss), ContractError);
}

TEST(TraceIo, RejectsTruncatedStream) {
  Trace t(Trace::Granularity::kBlock);
  for (int i = 0; i < 100; ++i) t.push_symbol(static_cast<Symbol>(i));
  std::stringstream ss;
  write_trace(ss, t);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_trace(cut), ContractError);
}

TEST(TraceIo, FileRoundtrip) {
  const Trace t = make_trace({9, 9, 1, 2});
  const std::string path = ::testing::TempDir() + "/trace.bin";
  save_trace(path, t);
  EXPECT_EQ(load_trace(path), t);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/dir/trace.bin"), ContractError);
}

// ---------- hostile streams ---------------------------------------------------
//
// Hand-crafted byte streams probing every validation path of read_trace: the
// decoder must reject them with ContractError instead of over-allocating,
// looping, or silently mis-decoding.

void append_u32(std::string& s, std::uint32_t v) {
  s.append(reinterpret_cast<const char*>(&v), 4);
}

void append_u64(std::string& s, std::uint64_t v) {
  s.append(reinterpret_cast<const char*>(&v), 8);
}

void append_varint(std::string& s, std::uint64_t v) {
  do {
    char byte = static_cast<char>(v & 0x7f);
    v >>= 7;
    if (v != 0) byte = static_cast<char>(byte | 0x80);
    s.push_back(byte);
  } while (v != 0);
}

/// Trace-stream header: magic "CLTR", version, granularity, event and run
/// counts (matching write_trace's layout).
std::string header(std::uint32_t version, std::uint64_t events,
                   std::uint64_t pairs) {
  std::string s;
  append_u32(s, 0x434c5452);
  append_u32(s, version);
  append_u32(s, 0);  // block granularity
  append_u64(s, events);
  append_u64(s, pairs);
  return s;
}

std::string thrown_message(const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    read_trace(ss);
  } catch (const ContractError& e) {
    return e.what();
  }
  return "";
}

TEST(TraceIoHostile, TruncatedVarintThrows) {
  std::string s = header(2, 5, 1);
  s.push_back('\x85');  // continuation bit set, then EOF
  EXPECT_NE(thrown_message(s).find("truncated varint"), std::string::npos);
}

TEST(TraceIoHostile, VarintOverflowThrows) {
  std::string s = header(2, 5, 1);
  // 10th byte carries payload > 1: the value needs more than 64 bits.
  for (int i = 0; i < 9; ++i) s.push_back('\xff');
  s.push_back('\x7f');
  EXPECT_NE(thrown_message(s).find("varint overflow"), std::string::npos);
}

TEST(TraceIoHostile, NeverEndingVarintThrows) {
  std::string s = header(2, 5, 1);
  for (int i = 0; i < 16; ++i) s.push_back('\x80');
  EXPECT_NE(thrown_message(s).find("varint overflow"), std::string::npos);
}

TEST(TraceIoHostile, SymbolWiderThan32BitsThrows) {
  std::string s = header(2, 5, 1);
  append_varint(s, std::uint64_t{1} << 32);
  append_varint(s, 5);
  EXPECT_NE(thrown_message(s).find("overflows 32 bits"), std::string::npos);
}

TEST(TraceIoHostile, ZeroLengthRunThrows) {
  std::string s = header(2, 5, 1);
  append_varint(s, 1);  // symbol
  append_varint(s, 0);  // length
  EXPECT_NE(thrown_message(s).find("zero-length run"), std::string::npos);
}

TEST(TraceIoHostile, RunLengthsExceedingEventCountThrow) {
  std::string s = header(2, /*events=*/3, /*pairs=*/1);
  append_varint(s, 1);
  append_varint(s, 5);  // 5 events in a 3-event trace
  EXPECT_NE(thrown_message(s).find("exceed declared event count"),
            std::string::npos);
}

TEST(TraceIoHostile, RunLengthSumOverflowIsRejected) {
  // Two near-max runs whose true sum wraps 64 bits: rejected (by the event
  // cap, before the remaining-capacity check would fire) instead of the sum
  // silently wrapping past `events`.
  std::string s = header(2, ~std::uint64_t{0} - 2, 2);
  append_varint(s, 1);
  append_varint(s, ~std::uint32_t{0});
  append_varint(s, 2);
  append_varint(s, ~std::uint32_t{0});
  std::stringstream ss(s);
  EXPECT_THROW(read_trace(ss), ContractError);
}

TEST(TraceIoHostile, EventCountMismatchThrows) {
  std::string s = header(2, /*events=*/10, /*pairs=*/1);
  append_varint(s, 1);
  append_varint(s, 5);  // only 5 of the declared 10 events
  EXPECT_NE(thrown_message(s).find("event count mismatch"), std::string::npos);
}

TEST(TraceIoHostile, HugeDeclaredRunCountDoesNotPreallocate) {
  // A header declaring ~10^18 runs followed by almost no data: the decoder
  // must hit the truncation check, not allocate by the declared count.
  std::string s = header(2, 1'000'000'000'000'000'000ull,
                         1'000'000'000'000'000'000ull);
  append_varint(s, 1);
  append_varint(s, 1);
  std::stringstream ss(s);
  EXPECT_THROW(read_trace(ss), ContractError);
}

TEST(TraceIoHostile, DeclaredEventCountAboveDecodeCapThrows) {
  // 34 bytes declaring one run of 2^32 - 1 events: expanding it would store
  // 16 GiB of symbols. The cap must reject the header before any storage.
  std::string s = header(2, /*events=*/~std::uint32_t{0}, /*pairs=*/1);
  append_varint(s, 1);
  append_varint(s, ~std::uint32_t{0});
  ASSERT_EQ(s.size(), 34u);
  EXPECT_NE(thrown_message(s).find("decode cap"), std::string::npos);
  // The cap itself is still accepted.
  std::string at_cap = header(2, kMaxTraceEvents, 1);
  append_varint(at_cap, 1);
  append_varint(at_cap, kMaxTraceEvents);
  std::stringstream ss(at_cap);
  EXPECT_EQ(read_trace(ss).size(), kMaxTraceEvents);
}

TEST(TraceIoHostile, UnsupportedVersionThrows) {
  // Version 2 is the only stream version; the retired fixed-width v1 and
  // any later number are rejected alike.
  for (const std::uint32_t version : {1u, 3u}) {
    const std::string s = header(version, 0, 0);
    EXPECT_NE(thrown_message(s).find("unsupported trace version"),
              std::string::npos)
        << "version " << version;
  }
}

}  // namespace
}  // namespace codelayout
