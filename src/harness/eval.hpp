// The typed request API of the evaluation engine.
//
// Every cell the Lab can compute is identified by an EvalKey — workload,
// optional optimizer (nullopt = the original layout), optional peer (engaged
// = a co-run), and the measurement flavour. An EvalRequest names a stage of
// the evaluation DAG (prepare -> layout -> solo | co-run) plus the key to
// materialize; batches of requests are Lab::evaluate_all's unit of work.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "cache/hierarchy.hpp"
#include "harness/pipeline.hpp"

namespace codelayout {

/// The paper's two instruments (Sec. III-A): PAPI hardware counters on the
/// Xeon, and the Pin-based cache simulator.
enum class Measure : std::uint8_t { kSimulator, kHardware };

/// Stages of the evaluation DAG, in dependency order.
enum class Stage : std::uint8_t { kPrepare, kLayout, kSolo, kCorun };

[[nodiscard]] const char* stage_name(Stage stage);

struct EvalKey {
  std::string workload;
  std::optional<Optimizer> optimizer;       ///< nullopt = original layout
  std::optional<std::string> peer;          ///< engaged = co-run vs this peer
  std::optional<Optimizer> peer_optimizer;  ///< the peer's layout
  Measure measure = Measure::kHardware;
  /// Cache shape the cell is evaluated under; the default is the paper's
  /// flat L1I, so legacy keys hash and print exactly as before.
  HierarchySpec hierarchy{};

  friend bool operator==(const EvalKey&, const EvalKey&) = default;
  friend auto operator<=>(const EvalKey&, const EvalKey&) = default;

  /// "458.sjeng|BB Affinity|vs|403.gcc|Original|hw" — for logs and errors.
  /// A non-default hierarchy appends "|g=<spec>".
  [[nodiscard]] std::string to_string() const;
};

struct EvalKeyHash {
  std::size_t operator()(const EvalKey& key) const noexcept;
};

/// One unit of batch work for Lab::evaluate_all. Use the factories: they
/// populate exactly the key fields the stage consumes.
struct EvalRequest {
  Stage stage = Stage::kSolo;
  EvalKey key;

  static EvalRequest prepare(std::string workload);
  static EvalRequest layout(std::string workload,
                            std::optional<Optimizer> optimizer);
  static EvalRequest solo(std::string workload,
                          std::optional<Optimizer> optimizer, Measure measure,
                          HierarchySpec hierarchy = {});
  static EvalRequest corun(std::string self, std::optional<Optimizer> self_opt,
                           std::string peer, std::optional<Optimizer> peer_opt,
                           Measure measure, HierarchySpec hierarchy = {});

  friend bool operator==(const EvalRequest&, const EvalRequest&) = default;
  friend auto operator<=>(const EvalRequest&, const EvalRequest&) = default;
};

/// Terminal state of one request in a checked batch.
enum class CellStatus : std::uint8_t { kOk, kFailed };

/// Per-request result of Lab::evaluate_all_checked: the request, whether its
/// cell materialized, and the failure message when it did not. A failed cell
/// never aborts the rest of the batch, so a caller sees every failing cell
/// of one batch at once.
struct EvalOutcome {
  EvalRequest request;
  CellStatus status = CellStatus::kOk;
  std::string error;  ///< empty when ok

  [[nodiscard]] bool ok() const { return status == CellStatus::kOk; }
};

}  // namespace codelayout
