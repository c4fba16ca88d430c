// What each benchmark workload asks of the system: the artifact batches
// (Table II, Fig. 5) as Lab requests, the service job universe and its seeded
// stream, and the output fingerprints checked against checksums.json.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/eval.hpp"
#include "harness/experiments.hpp"
#include "service/protocol.hpp"

namespace perfbench {

/// The shared L2 configuration the service stream mixes with the flat L1.
inline constexpr std::string_view kL2Hierarchy = "32K/4/64+l2=256K/8/64";

/// The batch the artifact's experiment function (table2_rows, fig5_rows)
/// submits to Lab::evaluate_all, in its order (duplicates included).
std::vector<codelayout::EvalRequest> table2_requests();
std::vector<codelayout::EvalRequest> fig5_requests();

/// Unique cells of a batch, ignoring order and duplicates.
std::size_t unique_cells(const std::vector<codelayout::EvalRequest>& requests);

/// FNV-1a over 64-bit words, the construction the service uses.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v);
inline constexpr std::uint64_t kFnvSeed = 14695981039346656037ull;
std::uint64_t fnv1a_bytes(std::uint64_t h, std::string_view bytes);
std::string hex64(std::uint64_t v);

/// One fingerprint per row: name plus every field's bit pattern.
struct RowChecksum {
  std::string name;
  std::uint64_t checksum = 0;
};
std::vector<RowChecksum> table2_checksums(
    const std::vector<codelayout::Table2Row>& rows);
std::vector<RowChecksum> fig5_checksums(
    const std::vector<codelayout::Fig5Row>& rows);

/// Every distinct request the service stream can send, over the paper's
/// 29-program suite: solo, layout, co-run (flat L1 and kL2Hierarchy) and
/// co-schedule jobs. Fixed: the seed only orders and repeats them.
std::vector<codelayout::service::JobRequest> service_universe();

/// One cold round of the stream: indices into `universe`. Every entry
/// appears once, the layout jobs first, each group in an order drawn from
/// (seed, round); after every third fresh job one earlier fresh job is
/// repeated exactly.
std::vector<std::size_t> service_stream(
    const std::vector<codelayout::service::JobRequest>& universe,
    std::uint64_t seed, std::uint64_t round);

/// Key of a request in checksums.json: FNV-1a of its canonical encoding.
std::string request_key(const codelayout::service::JobRequest& request);
/// Fingerprint of a reply's deterministic payload (id and receipt zeroed).
std::uint64_t reply_checksum(codelayout::service::JobResponse response);

}  // namespace perfbench
