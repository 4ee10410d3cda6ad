// Abstract syntax tree for the ESL-EV dialect.
//
// The dialect covers everything used by the paper's Examples 1-8:
//   * CREATE STREAM / CREATE TABLE (CREATE keyword optional, as in the
//     paper's listings: `STREAM readings(reader_id, tag_id, read_time);`)
//   * INSERT INTO <stream-or-table> SELECT ...
//   * SELECT ... FROM ... WHERE ... [GROUP BY ...] [HAVING ...]
//   * windows: OVER (RANGE n unit PRECEDING CURRENT) on TABLE(stream ...),
//     OVER [n unit PRECEDING|FOLLOWING|PRECEDING AND FOLLOWING anchor]
//   * (NOT) EXISTS (subquery), LIKE, BETWEEN, arithmetic, comparisons
//   * SEQ / EXCEPTION_SEQ / CLEVEL_SEQ with star arguments, OVER windows
//     and MODE clauses
//   * star aggregates FIRST(S*) / LAST(S*) / COUNT(S*), `.previous.` refs

#ifndef ESLEV_SQL_AST_H_
#define ESLEV_SQL_AST_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cep/pairing_mode.h"
#include "common/time.h"
#include "sql/source_span.h"
#include "types/schema.h"
#include "types/value.h"

namespace eslev {

// ---------------------------------------------------------------------------
// Windows
// ---------------------------------------------------------------------------

/// \brief Which side(s) of the anchor tuple the window covers.
enum class WindowDirection : int {
  kPreceding = 0,
  kFollowing,
  kPrecedingAndFollowing,
};

const char* WindowDirectionToString(WindowDirection d);

/// \brief A sliding window specification.
///
/// `anchor` names the stream alias (or SEQ argument position) the window
/// is measured from; empty or "CURRENT" means the current tuple of the
/// enclosing evaluation.
struct WindowSpec {
  bool row_based = false;   // true: ROWS n; false: RANGE of time
  int64_t length = 0;       // rows, or microseconds
  WindowDirection direction = WindowDirection::kPreceding;
  std::string anchor;
  SourceSpan span;          // the bracketed window text

  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

struct SelectStmt;

enum class ExprKind : int {
  kLiteral = 0,
  kColumnRef,
  kFuncCall,
  kStarAgg,
  kUnary,
  kBinary,
  kExists,
  kSeq,
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// \brief Base class of all expression nodes.
struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
  virtual std::string ToString() const = 0;

  const ExprKind kind;
  /// Source range of this expression; invalid (line 0) for synthesized
  /// nodes that have no surface syntax.
  SourceSpan span;
};

/// \brief A constant. Interval literals like `5 SECONDS` become
/// kTimestamp-typed values holding the duration in microseconds.
struct LiteralExpr : Expr {
  explicit LiteralExpr(Value v) : Expr(ExprKind::kLiteral), value(std::move(v)) {}
  std::string ToString() const override { return value.ToString(); }

  Value value;
};

/// \brief `col`, `alias.col`, or `alias.previous.col` (the paper's
/// inter-arrival operator on star sequences).
struct ColumnRefExpr : Expr {
  ColumnRefExpr(std::string q, std::string c, bool prev = false)
      : Expr(ExprKind::kColumnRef),
        qualifier(std::move(q)),
        column(std::move(c)),
        previous(prev) {}
  std::string ToString() const override {
    std::string out = qualifier;
    if (!out.empty()) out += ".";
    if (previous) out += "previous.";
    out += column;
    return out;
  }

  std::string qualifier;  // empty when unqualified
  std::string column;
  bool previous;          // alias.previous.column
};

/// \brief Scalar or aggregate function call: `count(tid)`,
/// `extract_serial(tid)`, `count(*)` (represented by zero args +
/// `star_arg`).
struct FuncCallExpr : Expr {
  FuncCallExpr(std::string n, std::vector<ExprPtr> a, bool star = false)
      : Expr(ExprKind::kFuncCall),
        name(std::move(n)),
        args(std::move(a)),
        star_arg(star) {}
  std::string ToString() const override;

  std::string name;
  std::vector<ExprPtr> args;
  bool star_arg;  // COUNT(*)
};

/// \brief Star-sequence aggregate functions (paper §3.1.2):
/// FIRST(S*).col, LAST(S*).col, COUNT(S*).
enum class StarAggFn : int { kFirst = 0, kLast, kCount };

const char* StarAggFnToString(StarAggFn f);

struct StarAggExpr : Expr {
  StarAggExpr(StarAggFn f, std::string s, std::string c)
      : Expr(ExprKind::kStarAgg),
        fn(f),
        stream(std::move(s)),
        column(std::move(c)) {}
  std::string ToString() const override {
    std::string out = StarAggFnToString(fn);
    out += "(" + stream + "*)";
    if (!column.empty()) out += "." + column;
    return out;
  }

  StarAggFn fn;
  std::string stream;  // the starred SEQ argument's alias
  std::string column;  // empty for COUNT
};

enum class UnaryOp : int { kNot = 0, kNeg };

struct UnaryExpr : Expr {
  UnaryExpr(UnaryOp o, ExprPtr e)
      : Expr(ExprKind::kUnary), op(o), operand(std::move(e)) {}
  std::string ToString() const override;

  UnaryOp op;
  ExprPtr operand;
};

enum class BinaryOp : int {
  kAnd = 0,
  kOr,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kLike,
  kNotLike,
};

const char* BinaryOpToString(BinaryOp op);

struct BinaryExpr : Expr {
  BinaryExpr(BinaryOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::kBinary), op(o), lhs(std::move(l)), rhs(std::move(r)) {}
  std::string ToString() const override;

  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};

/// \brief `[NOT] EXISTS (subquery)`.
struct ExistsExpr : Expr {
  ExistsExpr(bool neg, std::unique_ptr<SelectStmt> sub);
  ~ExistsExpr() override;
  std::string ToString() const override;

  bool negated;
  std::unique_ptr<SelectStmt> subquery;
};

/// \brief Which sequence operator (paper §3.1.1, §3.1.3).
enum class SeqKind : int { kSeq = 0, kExceptionSeq, kClevelSeq };

const char* SeqKindToString(SeqKind k);

/// \brief One argument of a SEQ operator: a stream alias, optionally
/// starred (`R1*`) or negated (`!B` — the event must NOT occur between
/// its neighbours; the negation operator of the paper's core set [17]).
struct SeqArg {
  std::string stream;
  bool star = false;
  bool negated = false;
  SourceSpan span;
};

/// \brief SEQ(...) / EXCEPTION_SEQ(...) / CLEVEL_SEQ(...) with optional
/// OVER window and MODE clause. SEQ and EXCEPTION_SEQ are boolean
/// predicates; CLEVEL_SEQ evaluates to the integer completion level.
struct SeqExpr : Expr {
  SeqExpr() : Expr(ExprKind::kSeq) {}
  std::string ToString() const override;

  SeqKind seq_kind = SeqKind::kSeq;
  std::vector<SeqArg> args;
  std::optional<WindowSpec> window;
  PairingMode mode = PairingMode::kUnrestricted;
  bool mode_explicit = false;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/// \brief One item of a SELECT list.
struct SelectItem {
  ExprPtr expr;        // null when is_star
  std::string alias;   // empty unless AS given
  bool is_star = false;

  std::string ToString() const;
};

/// \brief One entry of the FROM clause.
///
/// Plain form: `readings AS r1 [OVER [window]]`.
/// Windowed-table form (Example 1):
/// `TABLE( readings OVER (RANGE 1 SECONDS PRECEDING CURRENT) ) AS r2`.
struct TableRef {
  std::string name;
  std::string alias;   // defaults to name
  std::optional<WindowSpec> window;
  SourceSpan span;

  std::string ToString() const;
};

/// \brief One ORDER BY key.
struct OrderKey {
  ExprPtr expr;
  bool descending = false;
};

struct SelectStmt {
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ExprPtr where;                 // may be null
  std::vector<ExprPtr> group_by;
  ExprPtr having;                // may be null
  std::vector<OrderKey> order_by;  // snapshot queries only
  int64_t limit = -1;              // -1 = no limit (snapshot queries only)

  std::string ToString() const;
};

enum class StatementKind : int {
  kCreateStream = 0,
  kCreateTable,
  kCreateAggregate,
  kInsert,
  kSelect,
  kExplain,
};

struct Statement {
  explicit Statement(StatementKind k) : kind(k) {}
  virtual ~Statement() = default;
  virtual std::string ToString() const = 0;

  const StatementKind kind;
  SourceSpan span;  // the full statement text (excluding ';')
};

using StatementPtr = std::unique_ptr<Statement>;

/// \brief CREATE STREAM / CREATE TABLE. Column types default to VARCHAR
/// when omitted, except that a column whose name contains "time" defaults
/// to TIMESTAMP — this matches the paper's untyped listings, e.g.
/// `STREAM readings(reader_id, tag_id, read_time)`.
struct CreateStmt : Statement {
  CreateStmt(bool stream, std::string n, std::vector<Field> f)
      : Statement(stream ? StatementKind::kCreateStream
                         : StatementKind::kCreateTable),
        is_stream(stream),
        name(std::move(n)),
        fields(std::move(f)) {}
  std::string ToString() const override;

  bool is_stream;
  std::string name;
  std::vector<Field> fields;
};

/// \brief A UDA defined in native SQL (ESL's signature extensibility
/// feature, paper §2.1):
///
///   CREATE AGGREGATE name AS
///     INITIALIZE <expr>          -- evaluated on the first input
///     ITERATE    <expr>          -- evaluated on each further input
///     [TERMINATE <expr>]         -- evaluated to produce the result
///     [RETURNS <type>]           -- declared result type (default: the
///                                   argument's type)
///
/// Inside the expressions, `state` is the accumulator, `next` the
/// incoming value, and `n` the number of inputs accumulated so far.
struct CreateAggregateStmt : Statement {
  CreateAggregateStmt(std::string n, ExprPtr init, ExprPtr iter, ExprPtr term,
                      TypeId ret)
      : Statement(StatementKind::kCreateAggregate),
        name(std::move(n)),
        initialize(std::move(init)),
        iterate(std::move(iter)),
        terminate(std::move(term)),
        return_type(ret) {}
  std::string ToString() const override;

  std::string name;
  ExprPtr initialize;
  ExprPtr iterate;
  ExprPtr terminate;  // may be null
  TypeId return_type; // kNull = same as the argument
};

/// \brief INSERT INTO <target> SELECT ... — a continuous transducer when
/// the target is a stream, a stream-to-DB update when it is a table.
struct InsertStmt : Statement {
  InsertStmt(std::string t, std::unique_ptr<SelectStmt> s)
      : Statement(StatementKind::kInsert),
        target(std::move(t)),
        select(std::move(s)) {}
  std::string ToString() const override;

  std::string target;
  std::unique_ptr<SelectStmt> select;
};

/// \brief A bare SELECT — continuous when registered, or a snapshot when
/// executed ad hoc.
struct SelectStatement : Statement {
  explicit SelectStatement(std::unique_ptr<SelectStmt> s)
      : Statement(StatementKind::kSelect), select(std::move(s)) {}
  std::string ToString() const override { return select->ToString(); }

  std::unique_ptr<SelectStmt> select;
};

/// \brief How an EXPLAIN statement inspects its inner query.
enum class ExplainMode : int {
  kPlan = 0,  // describe the would-be pipeline
  kAnalyze,   // annotate the matching registered query's live counters
  kLint,      // run the static analyzer; output is JSON (DESIGN.md §11)
  kCost,      // static cost & state-bound report as JSON (DESIGN.md §16)
};

/// \brief EXPLAIN [ANALYZE | LINT] <SELECT | INSERT ... SELECT>. Plain
/// EXPLAIN describes the would-be pipeline without registering it;
/// EXPLAIN ANALYZE additionally locates an already-registered query with
/// the same plan and annotates each step with its live counters
/// (DESIGN.md §9); EXPLAIN LINT reports static-analysis diagnostics as
/// JSON (DESIGN.md §11).
struct ExplainStmt : Statement {
  ExplainStmt(ExplainMode m, StatementPtr i)
      : Statement(StatementKind::kExplain), mode(m), inner(std::move(i)) {}
  std::string ToString() const override {
    std::string out = "EXPLAIN ";
    if (mode == ExplainMode::kAnalyze) out += "ANALYZE ";
    if (mode == ExplainMode::kLint) out += "LINT ";
    if (mode == ExplainMode::kCost) out += "COST ";
    return out + inner->ToString();
  }

  ExplainMode mode;
  StatementPtr inner;  // kSelect or kInsert
};

// ---------------------------------------------------------------------------
// Walkers, shared by the planner's partitioning verdict, the cost model
// and the lint rules
// ---------------------------------------------------------------------------

/// \brief Preorder visit of `expr` and every nested expression,
/// including expressions inside EXISTS subqueries.
void ForEachExprIn(const Expr& expr,
                   const std::function<void(const Expr&)>& fn);

/// \brief Visit every expression of `select` (select list, WHERE, GROUP
/// BY, HAVING, ORDER BY), recursing into subqueries.
void ForEachExpr(const SelectStmt& select,
                 const std::function<void(const Expr&)>& fn);

/// \brief Visit `select` and every EXISTS subquery nested inside it.
void ForEachSelect(const SelectStmt& select,
                   const std::function<void(const SelectStmt&)>& fn);

}  // namespace eslev

#endif  // ESLEV_SQL_AST_H_
