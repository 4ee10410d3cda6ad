// QueryAnalyzer: the static-analysis pass behind `EXPLAIN LINT`
// (DESIGN.md §11).
//
// The analyzer runs a list of rules over one parsed statement. Each rule
// receives a LintContext — the statement, its SELECT body, the flattened
// WHERE conjuncts, every SEQ-family expression, and (when planning
// succeeded) the physical plan — and appends Diagnostics. Rules are
// infallible by design: a rule that cannot decide stays silent, so lint
// never blocks on the analyzer's own limitations.
//
// Built-in rules (registered for every analyzer; see rules.cc):
//   unbounded-retention   SEQ-family state the cost model's bound calls
//                         unbounded (§16), rendered per growth term
//   unsatisfiable-window  zero-length or vacuously anchored windows
//   star-aggregate-misuse FIRST/LAST/COUNT(S*) or `.previous.` on a
//                         non-star event
//   dead-predicate        constant-false or type-incoherent conjuncts
//   shard-fallback        SEQ/join shapes that force single-shard routing
//   durability-hazard     state whose checkpoint grows with total input
//   disorder-hazard       SEQ over live streams while the session
//                         declares input disorder no ingest reorder
//                         stage covers (DESIGN.md §15)
//   seq-negation-coverage mid-sequence negation in a 4+-position SEQ
//                         guards only one inter-position gap (§14)
//   plan-error            the planner rejected the statement outright

#ifndef ESLEV_ANALYSIS_ANALYZER_H_
#define ESLEV_ANALYSIS_ANALYZER_H_

#include <functional>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "common/result.h"
#include "plan/catalog.h"
#include "plan/planner.h"
#include "sql/ast.h"

namespace eslev {

struct QueryCostReport;  // analysis/cost_model.h

/// \brief Everything a lint rule may inspect about one statement.
struct LintContext {
  const Catalog* catalog = nullptr;
  /// The analyzed statement: kSelect or kInsert.
  const Statement* statement = nullptr;
  /// The SELECT body (the INSERT's inner SELECT when applicable).
  const SelectStmt* select = nullptr;
  /// INSERT target name; empty for bare SELECTs.
  std::string insert_target;
  /// Top-level AND conjuncts of the WHERE clause.
  std::vector<const Expr*> conjuncts;
  /// Every SEQ/EXCEPTION_SEQ/CLEVEL_SEQ expression in the WHERE clause.
  std::vector<const SeqExpr*> seqs;
  /// The physical plan, or nullptr when planning failed (see
  /// `plan_status`; the plan-error rule reports it).
  const PlannedQuery* plan = nullptr;
  Status plan_status = Status::OK();
  /// Static cost & state-bound report for the planned statement, or
  /// nullptr when planning (or cost analysis) failed. unbounded-retention
  /// renders its SEQ-family row; other rules quantify their findings
  /// with it (DESIGN.md §16).
  const QueryCostReport* cost = nullptr;
};

/// \brief One lint rule: inspect the context, append findings. Rules
/// must not fail — when undecidable, emit nothing.
using LintRule =
    std::function<void(const LintContext&, std::vector<Diagnostic>*)>;

class QueryAnalyzer {
 public:
  /// \brief `catalog` must outlive the analyzer. The built-in rule set
  /// is registered automatically.
  explicit QueryAnalyzer(const Catalog* catalog);

  /// \brief Analyze one statement. DDL statements yield no diagnostics;
  /// EXPLAIN statements are unwrapped to their inner query. Diagnostics
  /// come back ordered by source position.
  Result<std::vector<Diagnostic>> Analyze(const Statement& stmt) const;

  /// \brief Parse `sql` (a statement or a whole script) and analyze
  /// every query statement in it, concatenating the diagnostics.
  Result<std::vector<Diagnostic>> AnalyzeSql(const std::string& sql) const;

  /// \brief Register an additional rule; runs after the built-ins.
  void AddRule(LintRule rule) { rules_.push_back(std::move(rule)); }

 private:
  const Catalog* catalog_;
  std::vector<LintRule> rules_;
};

/// \brief Registers the built-in rule catalog onto `analyzer`; called by
/// the QueryAnalyzer constructor (defined in rules.cc).
void RegisterBuiltinLintRules(QueryAnalyzer* analyzer);

}  // namespace eslev

#endif  // ESLEV_ANALYSIS_ANALYZER_H_
