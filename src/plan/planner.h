// Planner: turns analyzed ESL-EV statements into operator pipelines.
//
// Query shapes supported (each maps to a paper scenario):
//   1. Single-stream transducer: filter/project, windowed NOT EXISTS
//      against the same or another stream (Examples 1, 8), NOT EXISTS
//      against a table (Example 2), aggregation with UDFs (Example 3).
//   2. Stream-table context-retrieval join (§2.1 Context Retrieval).
//   3. SEQ queries over n streams with pairing modes, windows and star
//      arguments (Examples 6, 7).
//   4. EXCEPTION_SEQ / CLEVEL_SEQ queries (Example 5, §3.1.3).
//
// WHERE-clause conjuncts of a SEQ query are classified into:
//   arrival filters (single position, no star constructs), star gates
//   (contain `.previous.`), pairwise constraints (exactly two positions),
//   and final checks (everything else) — see DESIGN.md §5.

#ifndef ESLEV_PLAN_PLANNER_H_
#define ESLEV_PLAN_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/binder.h"
#include "plan/catalog.h"
#include "sql/ast.h"
#include "stream/operator.h"

namespace eslev {

/// \brief A fully wired continuous-query pipeline. The Engine owns the
/// operators, makes the subscriptions, and attaches the output sink to
/// `tail`.
struct PlannedQuery {
  struct Subscription {
    Stream* stream;
    Operator* op;
    size_t port;
  };

  std::vector<std::unique_ptr<Operator>> operators;
  std::vector<Subscription> subscriptions;
  Operator* tail = nullptr;
  SchemaPtr output_schema;

  /// Human-readable plan steps, in execution order (EXPLAIN output).
  std::vector<std::string> notes;
  /// The operator each note describes, aligned with `notes` (nullptr for
  /// purely descriptive lines like "Source: ..."). EXPLAIN ANALYZE joins
  /// live counters onto the plan text through this mapping.
  std::vector<Operator*> note_ops;

  /// INSERT target name; empty for bare SELECTs. When the target is a
  /// table the pipeline already ends in a TableInsertOperator.
  std::string target;
  bool target_is_table = false;

  /// Assigned by the Engine at registration (0 = not registered).
  int query_id = 0;

  /// The engine-owned StreamInsertOperator feeding the output stream
  /// (null for table targets). Recorded at registration so runtime
  /// unregistration (DESIGN.md §17) can drop exactly this sink.
  Operator* sink = nullptr;

  /// \brief Record a plan step. When `op` is given, the note's prefix
  /// (text before the first ':') becomes the operator's metrics label.
  void AddNote(std::string note, Operator* op = nullptr) {
    if (op != nullptr && op->label().empty()) {
      op->set_label(note.substr(0, note.find(':')));
    }
    notes.push_back(std::move(note));
    note_ops.push_back(op);
  }
};

class Planner {
 public:
  explicit Planner(const Catalog* catalog) : catalog_(catalog) {}

  /// \brief Plan a continuous query (INSERT INTO ... SELECT, or SELECT).
  Result<PlannedQuery> Plan(const Statement& stmt);

 private:
  Result<PlannedQuery> PlanSelectInto(const SelectStmt& select,
                                      const std::string& target);

  Result<PlannedQuery> PlanSeqQuery(const SelectStmt& select,
                                    const std::string& target,
                                    std::vector<const Expr*> conjuncts);
  Result<PlannedQuery> PlanStreamPipeline(
      const SelectStmt& select, const std::string& target,
      std::vector<const Expr*> conjuncts);
  Result<PlannedQuery> PlanStreamTableJoin(
      const SelectStmt& select, const std::string& target,
      std::vector<const Expr*> conjuncts);

  const Catalog* catalog_;
};

/// \brief Flatten a WHERE clause into its top-level AND conjuncts.
void FlattenConjuncts(const Expr* where, std::vector<const Expr*>* out);

/// \brief Append every aggregate call in `expr` to `out` (outermost
/// only: an aggregate's arguments are the binder's business).
void CollectAggCalls(const Expr& expr, const FunctionRegistry& registry,
                     std::vector<const FuncCallExpr*>* out);

/// \brief The output column name of select item `index`: its alias, a
/// bare column's name, a function's name, `<fn>_<column>` for a star
/// aggregate, else `col<index>`.
std::string DeriveItemName(const SelectItem& item, size_t index);

/// \brief Collect which scope slots an expression references, whether it
/// contains `.previous.` references, star aggregates, or subqueries.
struct ExprRefs {
  std::vector<bool> slots;  // size == scope size
  bool has_previous = false;
  bool has_star_agg = false;
  bool has_exists = false;
  bool has_seq = false;

  int SingleSlot() const;  // the only referenced slot, or -1
  size_t Count() const;
};

Result<ExprRefs> CollectRefs(const Expr& expr, const BindScope& scope);

}  // namespace eslev

#endif  // ESLEV_PLAN_PLANNER_H_
