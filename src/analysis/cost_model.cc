#include "analysis/cost_model.h"

#include <algorithm>
#include <map>

#include "analysis/analyzer.h"
#include "cep/exception_seq_operator.h"
#include "cep/seq_operator.h"
#include "common/string_util.h"
#include "exec/aggregate.h"
#include "exec/basic_ops.h"
#include "exec/table_ops.h"
#include "exec/windowed_not_exists.h"
#include "plan/partitioning.h"

namespace eslev {

namespace {

/// Unwrap EXPLAIN wrappers down to the SELECT / INSERT statement.
const Statement* Unwrap(const Statement& stmt) {
  const Statement* s = &stmt;
  while (s->kind == StatementKind::kExplain) {
    s = static_cast<const ExplainStmt*>(s)->inner.get();
  }
  return s;
}

/// A conjunct the filter's selectivity covers: it reads a column and
/// holds no EXISTS, SEQ, star aggregate or `.previous` reference.
bool IsPlainFilter(const Expr& conjunct) {
  bool reads_column = false;
  bool special = false;
  ForEachExprIn(conjunct, [&](const Expr& e) {
    switch (e.kind) {
      case ExprKind::kExists:
      case ExprKind::kSeq:
      case ExprKind::kStarAgg:
        special = true;
        break;
      case ExprKind::kColumnRef:
        reads_column = true;
        if (static_cast<const ColumnRefExpr&>(e).previous) special = true;
        break;
      default:
        break;
    }
  });
  return reads_column && !special;
}

}  // namespace

CostAnalyzer::CostAnalyzer(const Catalog* catalog, CostModelParams params)
    : catalog_(catalog), params_(params) {}

Result<QueryCostReport> CostAnalyzer::Analyze(const Statement& stmt) const {
  const Statement* inner = Unwrap(stmt);
  Planner planner(catalog_);
  ESLEV_ASSIGN_OR_RETURN(PlannedQuery plan, planner.Plan(*inner));
  return AnalyzeFromPlan(*inner, plan);
}

Result<QueryCostReport> CostAnalyzer::AnalyzeFromPlan(
    const Statement& stmt, const PlannedQuery& plan) const {
  const Statement* s = Unwrap(stmt);
  const SelectStmt* select = nullptr;
  if (s->kind == StatementKind::kSelect) {
    select = static_cast<const SelectStatement*>(s)->select.get();
  } else if (s->kind == StatementKind::kInsert) {
    select = static_cast<const InsertStmt*>(s)->select.get();
  } else {
    return Status::Invalid("EXPLAIN COST applies to SELECT / INSERT");
  }

  QueryCostReport report;
  report.statement = s->ToString();
  report.assumed_shards = params_.assumed_shards;

  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(select->where.get(), &conjuncts);
  std::vector<const SeqExpr*> seqs;
  ForEachExpr(*select, [&seqs](const Expr& e) {
    if (e.kind == ExprKind::kSeq) {
      seqs.push_back(static_cast<const SeqExpr*>(&e));
    }
  });

  const auto rate_of = [this](const std::string& stream) {
    const StreamStats* stats = catalog_->FindStreamStats(stream);
    return stats != nullptr && stats->rate_per_sec > 0
               ? stats->rate_per_sec
               : params_.default_rate_per_sec;
  };
  const auto keys_of = [this](const std::string& stream) {
    const StreamStats* stats = catalog_->FindStreamStats(stream);
    return stats != nullptr && stats->distinct_keys > 0
               ? stats->distinct_keys
               : params_.default_distinct_keys;
  };

  // Alias -> (rate, partition-key column) for selectivity decisions.
  std::map<std::string, std::pair<double, std::string>> alias_info;
  double query_keys = params_.default_distinct_keys;
  bool keys_seen = false;
  for (const TableRef& ref : select->from) {
    const Stream* stream = catalog_->FindStream(ref.name);
    if (stream == nullptr) continue;
    const SchemaPtr& schema = stream->schema();
    const std::string key =
        AsciiToLower(schema->field(DefaultPartitionKeyIndex(schema)).name);
    alias_info[AsciiToLower(ref.alias)] = {rate_of(ref.name), key};
    if (!keys_seen) {
      query_keys = keys_of(ref.name);
      keys_seen = true;
    }
  }

  // Selectivity of one plain WHERE conjunct (DESIGN.md §16 defaults):
  // equality on the partition key 1/K, other equality / unknown shapes
  // other_selectivity, ranges range_selectivity, LIKE like_selectivity.
  const auto selectivity_of = [&](const Expr& c) -> double {
    if (c.kind != ExprKind::kBinary) return params_.other_selectivity;
    const auto& b = static_cast<const BinaryExpr&>(c);
    const bool l_col = b.lhs->kind == ExprKind::kColumnRef;
    const bool r_col = b.rhs->kind == ExprKind::kColumnRef;
    if (l_col && r_col) return 1.0;  // join predicate, priced elsewhere
    const double key_eq = 1.0 / std::max(query_keys, 1.0);
    const auto eq_sel = [&]() {
      const Expr* col = l_col ? b.lhs.get() : r_col ? b.rhs.get() : nullptr;
      if (col == nullptr) return params_.other_selectivity;
      const auto& ref = static_cast<const ColumnRefExpr&>(*col);
      const auto it = alias_info.find(AsciiToLower(ref.qualifier));
      if (it != alias_info.end() &&
          AsciiToLower(ref.column) == it->second.second) {
        return key_eq;
      }
      return params_.other_selectivity;
    };
    switch (b.op) {
      case BinaryOp::kEq:
        return eq_sel();
      case BinaryOp::kNe:
        return 1.0 - eq_sel();
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe:
        return params_.range_selectivity;
      case BinaryOp::kLike:
        return params_.like_selectivity;
      case BinaryOp::kNotLike:
        return 1.0 - params_.like_selectivity;
      default:
        return params_.other_selectivity;
    }
  };

  double filter_selectivity = 1.0;
  for (const Expr* c : conjuncts) {
    if (IsPlainFilter(*c)) filter_selectivity *= selectivity_of(*c);
  }
  filter_selectivity = std::clamp(filter_selectivity, 0.0, 1.0);

  // Total arrival rate into the pipeline (every subscription delivers).
  double current = 0;
  for (const PlannedQuery::Subscription& sub : plan.subscriptions) {
    current += rate_of(sub.stream->name());
  }

  const PartitionVerdict verdict =
      ClassifyPartitioning(*catalog_, *select, conjuncts, seqs).verdict;

  // Distinct keys of the NOT EXISTS sub-query's stream, which a keyed
  // window probe divides its buffer by.
  double anti_keys = params_.default_distinct_keys;
  for (const Expr* c : conjuncts) {
    if (c->kind != ExprKind::kExists) continue;
    const SelectStmt& sub = *static_cast<const ExistsExpr&>(*c).subquery;
    if (!sub.from.empty()) anti_keys = keys_of(sub.from[0].name);
  }

  bool filter_applied = false;
  for (Operator* op : plan.note_ops) {
    if (op == nullptr) continue;
    OperatorCost row;
    row.label = op->label().empty() ? "op" : op->label();
    row.in_rate = current;
    row.out_rate = current;
    row.cpu_cost = current;
    row.state = StatelessStateBound();

    if (auto* seq = dynamic_cast<SeqOperator*>(op)) {
      const SeqOperatorConfig& cfg = seq->config();
      row.op = "SeqOperator";
      row.state_gauges = {"retained_history"};
      std::vector<double> rates;
      for (const SeqPosition& pos : cfg.positions) {
        const auto it = alias_info.find(AsciiToLower(pos.alias));
        rates.push_back(it != alias_info.end()
                            ? it->second.first
                            : params_.default_rate_per_sec);
      }
      row.state = SeqStateBound(cfg, rates);
      const double r_last = rates.empty() ? 0 : rates.back();
      // Cardinality: each trigger enumerates the candidate combinations
      // of the stored positions; partition-key-linked positions narrow
      // each by 1/K. Non-UNRESTRICTED modes emit at most one match per
      // trigger.
      double combos = 1.0;
      const bool linked = verdict == PartitionVerdict::kPartitionable;
      if (cfg.window.has_value()) {
        const double w = WindowSeconds(cfg.window->length);
        for (size_t i = 0; i + 1 < cfg.positions.size(); ++i) {
          if (cfg.positions[i].negated || cfg.positions[i].star) continue;
          double cand = rates[i] * w;
          if (linked) cand /= std::max(query_keys, 1.0);
          combos *= std::max(cand, 0.0);
        }
      }
      row.out_rate = cfg.mode == PairingMode::kUnrestricted
                         ? r_last * std::max(combos, 0.0)
                         : r_last;
      // Matching scans the retained history per trigger; unbounded
      // history is priced over the documented horizon.
      const double scanned =
          row.state.bounded
              ? row.state.tuples
              : row.state.growth_per_sec * params_.unbounded_scan_horizon_secs;
      row.cpu_cost = current + r_last * scanned;
    } else if (auto* ex = dynamic_cast<ExceptionSeqOperator*>(op)) {
      const ExceptionSeqConfig& cfg = ex->config();
      row.op = "ExceptionSeqOperator";
      row.state_gauges = {"partial_level"};
      std::vector<double> rates;
      for (const SeqPosition& pos : cfg.positions) {
        const auto it = alias_info.find(AsciiToLower(pos.alias));
        rates.push_back(it != alias_info.end()
                            ? it->second.first
                            : params_.default_rate_per_sec);
      }
      row.state = ExceptionSeqStateBound(cfg, rates);
      // Every started run terminates exactly once (completion, violation
      // or expiry): the terminal rate tracks the first position's rate.
      row.out_rate = rates.empty() ? 0 : rates.front();
    } else if (auto* wne = dynamic_cast<WindowedNotExistsOperator*>(op)) {
      row.op = "WindowedNotExists";
      row.state_gauges = {"window_buffer", "pending"};
      row.state = WindowedNotExistsStateBound(wne->window(), current, current);
      row.out_rate = current * params_.anti_join_pass_rate;
      if (!filter_applied) {
        row.out_rate *= filter_selectivity;
        filter_applied = true;
      }
      // Each arrival probes the retained buffer and pending set; a keyed
      // probe evaluates its predicate only on its key's share of them.
      const double probed =
          wne->keyed() ? row.state.tuples / std::max(anti_keys, 1.0)
                       : row.state.tuples;
      row.cpu_cost = current + current * probed;
    } else if (auto* agg = dynamic_cast<AggregateOperator*>(op)) {
      row.op = "Aggregate";
      row.state_gauges = {"groups", "window_buffer"};
      row.state = AggregateStateBound(agg->num_group_exprs(), query_keys,
                                      agg->window(), current);
      // Continuous semantics: one output row per input tuple.
    } else if (auto* ins = dynamic_cast<TableInsertOperator*>(op)) {
      row.op = "TableInsert";
      row.state = TableInsertStateBound(current);
      (void)ins;
    } else if (dynamic_cast<TableNotExistsOperator*>(op) != nullptr) {
      row.op = "TableNotExists";
      row.out_rate = current * params_.anti_join_pass_rate;
    } else if (dynamic_cast<StreamTableJoinOperator*>(op) != nullptr) {
      row.op = "StreamTableJoin";
    } else if (dynamic_cast<FilterOperator*>(op) != nullptr) {
      row.op = "Filter";
      if (!filter_applied) {
        row.out_rate = current * filter_selectivity;
        filter_applied = true;
      }
    } else if (dynamic_cast<ProjectOperator*>(op) != nullptr) {
      row.op = "Project";
    } else {
      row.op = "Operator";
    }

    current = row.out_rate;
    report.total_cpu_cost += row.cpu_cost;
    if (row.state.bounded) {
      report.total_state_tuples += row.state.tuples;
    } else {
      report.state_bounded = false;
      report.total_state_growth_per_sec += row.state.growth_per_sec;
    }
    report.operators.push_back(std::move(row));
  }

  switch (verdict) {
    case PartitionVerdict::kPartitionable:
      report.partitioning = "partitionable";
      break;
    case PartitionVerdict::kSingleShard:
      report.partitioning = "single-shard";
      break;
    case PartitionVerdict::kUndecided:
      report.partitioning = "undecided";
      break;
  }
  report.single_shard_cost = report.total_cpu_cost;
  report.per_shard_cost =
      report.total_cpu_cost / std::max(params_.assumed_shards, 1);
  report.fallback_delta = report.single_shard_cost - report.per_shard_cost;
  return report;
}

std::string QueryCostReport::ToJson() const {
  std::string out = "{\"cost_model_version\":2,\"statement\":";
  AppendJsonString(statement, &out);
  out += ",\"operators\":[";
  for (size_t i = 0; i < operators.size(); ++i) {
    const OperatorCost& op = operators[i];
    if (i > 0) out += ",";
    out += "{\"op\":";
    AppendJsonString(op.op, &out);
    out += ",\"label\":";
    AppendJsonString(op.label, &out);
    out += ",\"in_rate\":" + FormatCostNumber(op.in_rate);
    out += ",\"out_rate\":" + FormatCostNumber(op.out_rate);
    out += ",\"cpu_cost\":" + FormatCostNumber(op.cpu_cost);
    out += ",\"state\":{\"bounded\":";
    out += op.state.bounded ? "true" : "false";
    out += ",\"tuples\":" + FormatCostNumber(op.state.tuples);
    out += ",\"growth_per_sec\":" + FormatCostNumber(op.state.growth_per_sec);
    out += ",\"formula\":";
    AppendJsonString(op.state.formula, &out);
    out += "},\"state_gauges\":[";
    for (size_t g = 0; g < op.state_gauges.size(); ++g) {
      if (g > 0) out += ",";
      AppendJsonString(op.state_gauges[g], &out);
    }
    out += "]}";
  }
  out += "],\"totals\":{\"cpu_cost\":" + FormatCostNumber(total_cpu_cost);
  out += ",\"state_bounded\":";
  out += state_bounded ? "true" : "false";
  out += ",\"state_tuples\":" + FormatCostNumber(total_state_tuples);
  out += ",\"state_growth_per_sec\":" +
         FormatCostNumber(total_state_growth_per_sec);
  out += "},\"sharding\":{\"verdict\":";
  AppendJsonString(partitioning, &out);
  out += ",\"assumed_shards\":" + std::to_string(assumed_shards);
  out += ",\"single_shard_cost\":" + FormatCostNumber(single_shard_cost);
  out += ",\"per_shard_cost\":" + FormatCostNumber(per_shard_cost);
  out += ",\"fallback_delta\":" + FormatCostNumber(fallback_delta);
  out += "}}";
  return out;
}

std::string StateBoundSummary(const QueryCostReport& report) {
  std::string formulas;
  for (const OperatorCost& op : report.operators) {
    // Stateless operators carry neither state nor a formula; skip them
    // so the summary names only what actually retains tuples.
    if (op.state.formula.empty() ||
        (op.state.bounded && op.state.tuples == 0)) {
      continue;
    }
    if (!formulas.empty()) formulas += " + ";
    formulas += op.state.formula;
  }
  std::string out;
  if (report.state_bounded) {
    out = FormatCostNumber(report.total_state_tuples) + " tuples";
  } else {
    out = "unbounded, grows " +
          FormatCostNumber(report.total_state_growth_per_sec) + "/s";
  }
  if (!formulas.empty()) out += " [" + formulas + "]";
  return out;
}

}  // namespace eslev
