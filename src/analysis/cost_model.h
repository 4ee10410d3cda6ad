// CostAnalyzer: the static cost & state-bound analyzer behind
// `EXPLAIN COST` (DESIGN.md §16).
//
// For one planned statement it derives, per operator:
//   (a) a retained-state bound (state_bounds.h) as a symbolic function
//       of window length, pairing mode, star buffers, dedup window and
//       group counts — validated against live metrics gauges by the
//       estimate-vs-actual harness (tests/analysis/cost_validation);
//   (b) a cardinality estimate propagated through filter/SEQ
//       selectivities from catalog-declared StreamStats, falling back
//       to the documented defaults in CostModelParams;
//   (c) a per-shard vs coordinator cost split from the partition-key
//       analysis in plan/partitioning.h — the quantified form of the
//       shard-fallback lint warning.
//
// The JSON shape emitted by ToJson() is a stable contract (locked by
// tests/analysis/json_schema_test); bump `cost_model_version` on any
// field change.

#ifndef ESLEV_ANALYSIS_COST_MODEL_H_
#define ESLEV_ANALYSIS_COST_MODEL_H_

#include <string>
#include <vector>

#include "analysis/state_bounds.h"
#include "common/result.h"
#include "plan/catalog.h"
#include "plan/planner.h"
#include "sql/ast.h"

namespace eslev {

/// \brief Calibration defaults of the cost model (DESIGN.md §16). Every
/// default is overridable per stream via Engine::DeclareStreamStats.
struct CostModelParams {
  /// Arrival rate assumed for streams without declared stats.
  double default_rate_per_sec = 1000.0;
  /// Distinct partition-key values assumed without declared stats.
  double default_distinct_keys = 1024.0;
  /// Selectivity of a range comparison (<, <=, >, >=) conjunct.
  double range_selectivity = 1.0 / 3;
  /// Selectivity of a LIKE conjunct.
  double like_selectivity = 0.25;
  /// Selectivity of any other column-referencing conjunct.
  double other_selectivity = 0.5;
  /// Fraction of outer tuples surviving a NOT EXISTS anti-join.
  double anti_join_pass_rate = 0.5;
  /// Horizon, in seconds, used to price scans over *unbounded* SEQ
  /// history (the history keeps growing; the estimate prices the first
  /// minute and the state bound reports the growth rate).
  double unbounded_scan_horizon_secs = 60.0;
  /// Shard count assumed by the per-shard vs coordinator split.
  int assumed_shards = 4;
};

/// \brief Cost and state bound of one pipeline operator. `label` equals
/// the operator's metrics label, so row k of a registered query joins
/// the `query<id>.op<k>.<label>.*` gauges (Engine::Metrics).
struct OperatorCost {
  std::string op;     // operator kind, e.g. "SeqOperator"
  std::string label;  // metrics label (plan-note prefix)
  double in_rate = 0;   // tuples/sec entering
  double out_rate = 0;  // tuples/sec emitted (cardinality estimate)
  double cpu_cost = 0;  // predicate evaluations/sec
  StateBound state;
  /// AppendStats gauge names measuring this operator's live retained
  /// state (the ones the estimate-vs-actual harness sums and compares
  /// against `state.tuples`).
  std::vector<std::string> state_gauges;
};

/// \brief Full `EXPLAIN COST` report for one statement.
struct QueryCostReport {
  std::string statement;  // canonical statement text
  std::vector<OperatorCost> operators;
  double total_cpu_cost = 0;
  bool state_bounded = true;
  double total_state_tuples = 0;          // sum of bounded operator bounds
  double total_state_growth_per_sec = 0;  // sum of unbounded growth rates
  /// "partitionable", "single-shard" or "undecided" (plan/partitioning).
  std::string partitioning;
  int assumed_shards = 0;
  /// Cost the hot shard bears when the query falls back to one shard.
  double single_shard_cost = 0;
  /// Cost per shard when the query hash-partitions cleanly.
  double per_shard_cost = 0;
  /// Extra load on the hot shard under fallback: single - per-shard.
  double fallback_delta = 0;

  std::string ToJson() const;
};

/// \brief One-line symbolic state-bound summary of a report, e.g.
/// "15001 tuples [r(readings)*30s+1 [window]]" or "unbounded, grows
/// 500/s [history (no purge license)]" — the wording admission-control
/// rejections embed so a tenant sees *why* a query charges what it
/// does (DESIGN.md §17). Stateless operators (formula-free) are
/// omitted; multiple stateful operators join with " + ".
std::string StateBoundSummary(const QueryCostReport& report);

class CostAnalyzer {
 public:
  /// \brief `catalog` must outlive the analyzer.
  explicit CostAnalyzer(const Catalog* catalog, CostModelParams params = {});

  /// \brief Analyze one SELECT / INSERT statement (EXPLAIN wrappers are
  /// unwrapped); plans it internally.
  Result<QueryCostReport> Analyze(const Statement& stmt) const;

  /// \brief Analyze against an existing plan of the same statement (the
  /// QueryAnalyzer path — avoids replanning).
  Result<QueryCostReport> AnalyzeFromPlan(const Statement& stmt,
                                          const PlannedQuery& plan) const;

  const CostModelParams& params() const { return params_; }

 private:
  const Catalog* catalog_;
  CostModelParams params_;
};

}  // namespace eslev

#endif  // ESLEV_ANALYSIS_COST_MODEL_H_
