#include "analysis/analyzer.h"

#include <algorithm>
#include <optional>

#include "analysis/cost_model.h"
#include "sql/parser.h"

namespace eslev {

// ---------------------------------------------------------------------------
// QueryAnalyzer
// ---------------------------------------------------------------------------

QueryAnalyzer::QueryAnalyzer(const Catalog* catalog) : catalog_(catalog) {
  RegisterBuiltinLintRules(this);
}

Result<std::vector<Diagnostic>> QueryAnalyzer::Analyze(
    const Statement& stmt) const {
  if (stmt.kind == StatementKind::kExplain) {
    return Analyze(*static_cast<const ExplainStmt&>(stmt).inner);
  }

  std::vector<Diagnostic> out;
  LintContext ctx;
  ctx.catalog = catalog_;
  ctx.statement = &stmt;
  switch (stmt.kind) {
    case StatementKind::kSelect:
      ctx.select = static_cast<const SelectStatement&>(stmt).select.get();
      break;
    case StatementKind::kInsert: {
      const auto& insert = static_cast<const InsertStmt&>(stmt);
      ctx.select = insert.select.get();
      ctx.insert_target = insert.target;
      break;
    }
    default:
      return out;  // DDL carries no lintable query shape
  }

  FlattenConjuncts(ctx.select->where.get(), &ctx.conjuncts);
  if (ctx.select->where != nullptr) {
    ForEachExprIn(*ctx.select->where, [&ctx](const Expr& e) {
      if (e.kind == ExprKind::kSeq) {
        ctx.seqs.push_back(static_cast<const SeqExpr*>(&e));
      }
    });
  }

  // Plan the statement so rules can inspect the physical pipeline. A
  // planner rejection becomes a diagnostic rather than a lint failure:
  // AST-level rules still run (and usually explain *why* planning died).
  Planner planner(catalog_);
  Result<PlannedQuery> planned = planner.Plan(stmt);
  std::optional<QueryCostReport> cost_report;
  if (planned.ok()) {
    ctx.plan = &*planned;
    // Cost analysis reuses the plan; a failure here leaves ctx.cost null,
    // which silences unbounded-retention and unquantifies other rules.
    CostAnalyzer cost_analyzer(catalog_);
    Result<QueryCostReport> cost = cost_analyzer.AnalyzeFromPlan(stmt, *planned);
    if (cost.ok()) {
      cost_report = std::move(cost).ValueUnsafe();
      ctx.cost = &*cost_report;
    }
  } else {
    ctx.plan_status = planned.status();
  }

  for (const LintRule& rule : rules_) {
    rule(ctx, &out);
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.span.offset != b.span.offset) {
                       return a.span.offset < b.span.offset;
                     }
                     return a.rule < b.rule;
                   });
  return out;
}

Result<std::vector<Diagnostic>> QueryAnalyzer::AnalyzeSql(
    const std::string& sql) const {
  ESLEV_ASSIGN_OR_RETURN(auto statements, ParseScript(sql));
  std::vector<Diagnostic> out;
  for (const StatementPtr& stmt : statements) {
    ESLEV_ASSIGN_OR_RETURN(std::vector<Diagnostic> diags, Analyze(*stmt));
    out.insert(out.end(), std::make_move_iterator(diags.begin()),
               std::make_move_iterator(diags.end()));
  }
  return out;
}

}  // namespace eslev
