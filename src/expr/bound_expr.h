// Bound (analyzed) expressions: AST nodes resolved to slot/column indexes
// and function pointers, evaluable against an EvalRow.

#ifndef ESLEV_EXPR_BOUND_EXPR_H_
#define ESLEV_EXPR_BOUND_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/eval_row.h"
#include "expr/function_registry.h"
#include "sql/ast.h"
#include "types/value.h"

namespace eslev {

class BoundExpr {
 public:
  virtual ~BoundExpr() = default;
  virtual Result<Value> Eval(const EvalRow& row) const = 0;

  /// \brief The value Eval would return, read in place (DESIGN.md §5
  /// "Operands read in place"): a column of a tuple bound in `row`, or a
  /// literal. Null for anything computed, for a tuple `row` lacks (an
  /// unbound slot or absent `.previous.`, where Eval yields NULL) and
  /// wherever Eval would fail; the caller then calls Eval. The pointer
  /// lives as long as the row bound in `row` (for a literal, as long as
  /// this node).
  virtual const Value* Peek(const EvalRow& /*row*/) const { return nullptr; }
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

/// \brief WHERE-clause truth: TRUE is accepted; FALSE and NULL reject.
Result<bool> EvalPredicate(const BoundExpr& expr, const EvalRow& row);

// ---------------------------------------------------------------------------
// Node types (exposed for tests; constructed by the Binder)
// ---------------------------------------------------------------------------

class BoundLiteral : public BoundExpr {
 public:
  explicit BoundLiteral(Value v) : value_(std::move(v)) {}
  Result<Value> Eval(const EvalRow&) const override { return value_; }
  const Value* Peek(const EvalRow&) const override { return &value_; }

 private:
  Value value_;
};

class BoundColumnRef : public BoundExpr {
 public:
  BoundColumnRef(size_t slot, size_t column, bool previous, std::string name)
      : slot_(slot), column_(column), previous_(previous),
        name_(std::move(name)) {}
  Result<Value> Eval(const EvalRow& row) const override;
  const Value* Peek(const EvalRow& row) const override;

  size_t slot() const { return slot_; }
  size_t column() const { return column_; }
  bool previous() const { return previous_; }

 private:
  // The tuple this reference reads in `row` (slot_ must be in range);
  // null for an unbound slot or an absent `.previous.` tuple.
  const Tuple* TupleIn(const EvalRow& row) const {
    if (!previous_) return row.slots[slot_];
    return row.prev_slots != nullptr ? row.prev_slots[slot_] : nullptr;
  }

  size_t slot_;
  size_t column_;
  bool previous_;
  std::string name_;  // for error messages
};

class BoundStarAgg : public BoundExpr {
 public:
  BoundStarAgg(StarAggFn fn, size_t slot, int column, std::string name)
      : fn_(fn), slot_(slot), column_(column), name_(std::move(name)) {}
  Result<Value> Eval(const EvalRow& row) const override;

 private:
  StarAggFn fn_;
  size_t slot_;
  int column_;  // -1 for COUNT
  std::string name_;
};

class BoundScalarCall : public BoundExpr {
 public:
  BoundScalarCall(const ScalarFunction* fn, std::vector<BoundExprPtr> args)
      : fn_(fn), args_(std::move(args)) {}
  Result<Value> Eval(const EvalRow& row) const override;

 private:
  const ScalarFunction* fn_;
  std::vector<BoundExprPtr> args_;
};

class BoundUnary : public BoundExpr {
 public:
  BoundUnary(UnaryOp op, BoundExprPtr operand)
      : op_(op), operand_(std::move(operand)) {}
  Result<Value> Eval(const EvalRow& row) const override;

 private:
  UnaryOp op_;
  BoundExprPtr operand_;
};

class BoundBinary : public BoundExpr {
 public:
  BoundBinary(BinaryOp op, BoundExprPtr lhs, BoundExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Result<Value> Eval(const EvalRow& row) const override;

  BinaryOp op() const { return op_; }
  const BoundExpr& lhs() const { return *lhs_; }
  const BoundExpr& rhs() const { return *rhs_; }

 private:
  BinaryOp op_;
  BoundExprPtr lhs_;
  BoundExprPtr rhs_;
};

/// \brief Reads a pre-computed aggregate result (row.agg_values[index]);
/// the aggregate operator computes those before projecting.
class BoundAggRef : public BoundExpr {
 public:
  explicit BoundAggRef(size_t index) : index_(index) {}
  Result<Value> Eval(const EvalRow& row) const override;

 private:
  size_t index_;
};

}  // namespace eslev

#endif  // ESLEV_EXPR_BOUND_EXPR_H_
