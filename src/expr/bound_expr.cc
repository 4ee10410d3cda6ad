#include "expr/bound_expr.h"

#include "common/string_util.h"

namespace eslev {

Result<bool> EvalPredicate(const BoundExpr& expr, const EvalRow& row) {
  ESLEV_ASSIGN_OR_RETURN(Value v, expr.Eval(row));
  if (v.is_null()) return false;  // SQL: UNKNOWN rejects
  if (v.type() != TypeId::kBool) {
    return Status::TypeError("predicate did not evaluate to a boolean: " +
                             v.ToString());
  }
  return v.bool_value();
}

Result<Value> BoundColumnRef::Eval(const EvalRow& row) const {
  if (slot_ >= row.num_slots) {
    return Status::ExecutionError("slot out of range for " + name_);
  }
  const Tuple* t = TupleIn(row);
  if (t == nullptr) {
    // `.previous.` on the first tuple of a star group, or an unbound
    // stream slot: SQL NULL.
    return Value::Null();
  }
  if (column_ >= t->size()) {
    return Status::ExecutionError("column index out of range for " + name_);
  }
  return t->value(column_);
}

const Value* BoundColumnRef::Peek(const EvalRow& row) const {
  const Tuple* t = slot_ < row.num_slots ? TupleIn(row) : nullptr;
  return t != nullptr && column_ < t->size() ? &t->value(column_) : nullptr;
}

Result<Value> BoundStarAgg::Eval(const EvalRow& row) const {
  if (slot_ >= row.num_slots || row.star_groups == nullptr ||
      row.star_groups[slot_] == nullptr) {
    return Status::ExecutionError("no star group bound for " + name_);
  }
  const std::vector<Tuple>& group = *row.star_groups[slot_];
  switch (fn_) {
    case StarAggFn::kCount:
      return Value::Int(static_cast<int64_t>(group.size()));
    case StarAggFn::kFirst:
    case StarAggFn::kLast: {
      if (group.empty()) return Value::Null();
      const Tuple& t = fn_ == StarAggFn::kFirst ? group.front() : group.back();
      if (column_ < 0 || static_cast<size_t>(column_) >= t.size()) {
        return Status::ExecutionError("bad star aggregate column in " + name_);
      }
      return t.value(static_cast<size_t>(column_));
    }
  }
  return Status::ExecutionError("bad star aggregate " + name_);
}

Result<Value> BoundScalarCall::Eval(const EvalRow& row) const {
  std::vector<Value> args;
  args.reserve(args_.size());
  for (const auto& a : args_) {
    ESLEV_ASSIGN_OR_RETURN(Value v, a->Eval(row));
    args.push_back(std::move(v));
  }
  return fn_->fn(args);
}

Result<Value> BoundUnary::Eval(const EvalRow& row) const {
  ESLEV_ASSIGN_OR_RETURN(Value v, operand_->Eval(row));
  switch (op_) {
    case UnaryOp::kNot:
      if (v.is_null()) return Value::Null();
      if (v.type() != TypeId::kBool) {
        return Status::TypeError("NOT applied to non-boolean " + v.ToString());
      }
      return Value::Bool(!v.bool_value());
    case UnaryOp::kNeg:
      if (v.is_null()) return Value::Null();
      if (v.type() == TypeId::kDouble) return Value::Double(-v.double_value());
      ESLEV_ASSIGN_OR_RETURN(int64_t i, v.AsInt64());
      return Value::Int(-i);
  }
  return Status::ExecutionError("bad unary operator");
}

namespace {

// Three-valued AND/OR.
Result<Value> EvalLogical(BinaryOp op, const Value& l, const Value& r) {
  auto truth = [](const Value& v) -> Result<int> {  // 0=false,1=true,2=null
    if (v.is_null()) return 2;
    if (v.type() != TypeId::kBool) {
      return Status::TypeError("logical operand is not boolean: " +
                               v.ToString());
    }
    return v.bool_value() ? 1 : 0;
  };
  ESLEV_ASSIGN_OR_RETURN(int lt, truth(l));
  ESLEV_ASSIGN_OR_RETURN(int rt, truth(r));
  if (op == BinaryOp::kAnd) {
    if (lt == 0 || rt == 0) return Value::Bool(false);
    if (lt == 2 || rt == 2) return Value::Null();
    return Value::Bool(true);
  }
  if (lt == 1 || rt == 1) return Value::Bool(true);
  if (lt == 2 || rt == 2) return Value::Null();
  return Value::Bool(false);
}

Result<Value> EvalComparison(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  ESLEV_ASSIGN_OR_RETURN(int cmp, l.Compare(r));
  switch (op) {
    case BinaryOp::kEq:
      return Value::Bool(cmp == 0);
    case BinaryOp::kNe:
      return Value::Bool(cmp != 0);
    case BinaryOp::kLt:
      return Value::Bool(cmp < 0);
    case BinaryOp::kLe:
      return Value::Bool(cmp <= 0);
    case BinaryOp::kGt:
      return Value::Bool(cmp > 0);
    case BinaryOp::kGe:
      return Value::Bool(cmp >= 0);
    default:
      return Status::ExecutionError("bad comparison operator");
  }
}

Result<Value> EvalArithmetic(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  const bool l_ts = l.type() == TypeId::kTimestamp;
  const bool r_ts = r.type() == TypeId::kTimestamp;
  const bool any_double =
      l.type() == TypeId::kDouble || r.type() == TypeId::kDouble;

  if (any_double) {
    ESLEV_ASSIGN_OR_RETURN(double a, l.AsDouble());
    ESLEV_ASSIGN_OR_RETURN(double b, r.AsDouble());
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Double(a + b);
      case BinaryOp::kSub:
        return Value::Double(a - b);
      case BinaryOp::kMul:
        return Value::Double(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::ExecutionError("division by zero");
        return Value::Double(a / b);
      case BinaryOp::kMod:
        return Status::TypeError("'%' requires integer operands");
      default:
        break;
    }
    return Status::ExecutionError("bad arithmetic operator");
  }

  ESLEV_ASSIGN_OR_RETURN(int64_t a, l.AsInt64());
  ESLEV_ASSIGN_OR_RETURN(int64_t b, r.AsInt64());
  int64_t out;
  switch (op) {
    case BinaryOp::kAdd:
      out = a + b;
      break;
    case BinaryOp::kSub:
      out = a - b;
      break;
    case BinaryOp::kMul:
      out = a * b;
      break;
    case BinaryOp::kDiv:
      if (b == 0) return Status::ExecutionError("division by zero");
      out = a / b;
      break;
    case BinaryOp::kMod:
      if (b == 0) return Status::ExecutionError("modulo by zero");
      out = a % b;
      break;
    default:
      return Status::ExecutionError("bad arithmetic operator");
  }
  // Timestamp algebra: ts - ts = duration (INT); ts +/- duration = ts.
  if (l_ts && r_ts) {
    if (op == BinaryOp::kSub) return Value::Int(out);
    return Status::TypeError("unsupported timestamp arithmetic");
  }
  if ((l_ts || r_ts) && (op == BinaryOp::kAdd || op == BinaryOp::kSub)) {
    return Value::Time(out);
  }
  return Value::Int(out);
}

Result<Value> EvalLike(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (l.type() != TypeId::kString || r.type() != TypeId::kString) {
    return Status::TypeError("LIKE requires VARCHAR operands");
  }
  const bool m = SqlLikeMatch(l.string_value(), r.string_value());
  return Value::Bool(op == BinaryOp::kLike ? m : !m);
}

}  // namespace

Result<Value> BoundBinary::Eval(const EvalRow& row) const {
  // Short-circuit logical operators.
  if (op_ == BinaryOp::kAnd || op_ == BinaryOp::kOr) {
    ESLEV_ASSIGN_OR_RETURN(Value l, lhs_->Eval(row));
    if (!l.is_null() && l.type() == TypeId::kBool) {
      if (op_ == BinaryOp::kAnd && !l.bool_value()) return Value::Bool(false);
      if (op_ == BinaryOp::kOr && l.bool_value()) return Value::Bool(true);
    }
    ESLEV_ASSIGN_OR_RETURN(Value r, rhs_->Eval(row));
    return EvalLogical(op_, l, r);
  }

  // A column or literal operand is read in place; only a computed one
  // is evaluated into a Value.
  Value l_value;
  const Value* l = lhs_->Peek(row);
  if (l == nullptr) {
    ESLEV_ASSIGN_OR_RETURN(l_value, lhs_->Eval(row));
    l = &l_value;
  }
  Value r_value;
  const Value* r = rhs_->Peek(row);
  if (r == nullptr) {
    ESLEV_ASSIGN_OR_RETURN(r_value, rhs_->Eval(row));
    r = &r_value;
  }
  switch (op_) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return EvalComparison(op_, *l, *r);
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return EvalArithmetic(op_, *l, *r);
    case BinaryOp::kLike:
    case BinaryOp::kNotLike:
      return EvalLike(op_, *l, *r);
    default:
      return Status::ExecutionError("bad binary operator");
  }
}

Result<Value> BoundAggRef::Eval(const EvalRow& row) const {
  if (row.agg_values == nullptr || index_ >= row.agg_values->size()) {
    return Status::ExecutionError("aggregate value not available");
  }
  return (*row.agg_values)[index_];
}

}  // namespace eslev
