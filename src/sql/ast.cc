#include "sql/ast.h"

namespace eslev {

const char* WindowDirectionToString(WindowDirection d) {
  switch (d) {
    case WindowDirection::kPreceding:
      return "PRECEDING";
    case WindowDirection::kFollowing:
      return "FOLLOWING";
    case WindowDirection::kPrecedingAndFollowing:
      return "PRECEDING AND FOLLOWING";
  }
  return "?";
}

std::string WindowSpec::ToString() const {
  std::string out = "[";
  if (row_based) {
    out += "ROWS " + std::to_string(length);
  } else {
    out += FormatDuration(length);
  }
  out += " ";
  out += WindowDirectionToString(direction);
  if (!anchor.empty()) {
    out += " " + anchor;
  }
  out += "]";
  return out;
}

const char* StarAggFnToString(StarAggFn f) {
  switch (f) {
    case StarAggFn::kFirst:
      return "FIRST";
    case StarAggFn::kLast:
      return "LAST";
    case StarAggFn::kCount:
      return "COUNT";
  }
  return "?";
}

std::string FuncCallExpr::ToString() const {
  std::string out = name + "(";
  if (star_arg) {
    out += "*";
  } else {
    for (size_t i = 0; i < args.size(); ++i) {
      if (i > 0) out += ", ";
      out += args[i]->ToString();
    }
  }
  out += ")";
  return out;
}

std::string UnaryExpr::ToString() const {
  switch (op) {
    case UnaryOp::kNot:
      return "NOT (" + operand->ToString() + ")";
    case UnaryOp::kNeg:
      return "-(" + operand->ToString() + ")";
  }
  return "?";
}

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kLike:
      return "LIKE";
    case BinaryOp::kNotLike:
      return "NOT LIKE";
  }
  return "?";
}

std::string BinaryExpr::ToString() const {
  return "(" + lhs->ToString() + " " + BinaryOpToString(op) + " " +
         rhs->ToString() + ")";
}

ExistsExpr::ExistsExpr(bool neg, std::unique_ptr<SelectStmt> sub)
    : Expr(ExprKind::kExists), negated(neg), subquery(std::move(sub)) {}

ExistsExpr::~ExistsExpr() = default;

std::string ExistsExpr::ToString() const {
  std::string out = negated ? "NOT EXISTS (" : "EXISTS (";
  out += subquery->ToString();
  out += ")";
  return out;
}

const char* SeqKindToString(SeqKind k) {
  switch (k) {
    case SeqKind::kSeq:
      return "SEQ";
    case SeqKind::kExceptionSeq:
      return "EXCEPTION_SEQ";
    case SeqKind::kClevelSeq:
      return "CLEVEL_SEQ";
  }
  return "?";
}

std::string SeqExpr::ToString() const {
  std::string out = SeqKindToString(seq_kind);
  out += "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    if (args[i].negated) out += "!";
    out += args[i].stream;
    if (args[i].star) out += "*";
  }
  out += ")";
  if (window) {
    out += " OVER " + window->ToString();
  }
  if (mode_explicit) {
    out += " MODE ";
    out += PairingModeToString(mode);
  }
  return out;
}

std::string SelectItem::ToString() const {
  if (is_star) return "*";
  std::string out = expr->ToString();
  if (!alias.empty()) out += " AS " + alias;
  return out;
}

std::string TableRef::ToString() const {
  std::string out = name;
  if (alias != name && !alias.empty()) out += " AS " + alias;
  if (window) out += " OVER " + window->ToString();
  return out;
}

std::string SelectStmt::ToString() const {
  std::string out = "SELECT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i].ToString();
  }
  out += " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) out += ", ";
    out += from[i].ToString();
  }
  if (where) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  if (having) out += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToString();
      if (order_by[i].descending) out += " DESC";
    }
  }
  if (limit >= 0) out += " LIMIT " + std::to_string(limit);
  return out;
}

std::string CreateStmt::ToString() const {
  std::string out = "CREATE ";
  out += is_stream ? "STREAM " : "TABLE ";
  out += name + "(";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields[i].name;
    out += " ";
    out += TypeIdToString(fields[i].type);
  }
  out += ")";
  return out;
}

std::string CreateAggregateStmt::ToString() const {
  std::string out = "CREATE AGGREGATE " + name + " AS INITIALIZE " +
                    initialize->ToString() + " ITERATE " +
                    iterate->ToString();
  if (terminate) out += " TERMINATE " + terminate->ToString();
  if (return_type != TypeId::kNull) {
    out += " RETURNS ";
    out += TypeIdToString(return_type);
  }
  return out;
}

std::string InsertStmt::ToString() const {
  return "INSERT INTO " + target + " " + select->ToString();
}

// ---------------------------------------------------------------------------
// Walkers
// ---------------------------------------------------------------------------


void ForEachExprIn(const Expr& expr,
                   const std::function<void(const Expr&)>& fn) {
  fn(expr);
  switch (expr.kind) {
    case ExprKind::kFuncCall:
      for (const ExprPtr& a : static_cast<const FuncCallExpr&>(expr).args) {
        ForEachExprIn(*a, fn);
      }
      break;
    case ExprKind::kUnary:
      ForEachExprIn(*static_cast<const UnaryExpr&>(expr).operand, fn);
      break;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      ForEachExprIn(*b.lhs, fn);
      ForEachExprIn(*b.rhs, fn);
      break;
    }
    case ExprKind::kExists:
      ForEachExpr(*static_cast<const ExistsExpr&>(expr).subquery, fn);
      break;
    default:
      break;  // leaves: literal, column ref, star agg, SEQ
  }
}

void ForEachExpr(const SelectStmt& select,
                 const std::function<void(const Expr&)>& fn) {
  for (const SelectItem& item : select.items) {
    if (item.expr != nullptr) ForEachExprIn(*item.expr, fn);
  }
  if (select.where != nullptr) ForEachExprIn(*select.where, fn);
  for (const ExprPtr& g : select.group_by) ForEachExprIn(*g, fn);
  if (select.having != nullptr) ForEachExprIn(*select.having, fn);
  for (const OrderKey& k : select.order_by) ForEachExprIn(*k.expr, fn);
}

void ForEachSelect(const SelectStmt& select,
                   const std::function<void(const SelectStmt&)>& fn) {
  fn(select);
  ForEachExpr(select, [&fn](const Expr& e) {
    if (e.kind == ExprKind::kExists) {
      // ForEachExpr already recursed into the subquery's expressions;
      // here we only surface the subquery statement itself.
      fn(*static_cast<const ExistsExpr&>(e).subquery);
    }
  });
}

}  // namespace eslev
