// Basic relational operators: filter, project, callback delivery.

#ifndef ESLEV_EXEC_BASIC_OPS_H_
#define ESLEV_EXEC_BASIC_OPS_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "expr/bound_expr.h"
#include "stream/operator.h"

namespace eslev {

/// \brief Forwards tuples satisfying a predicate bound against a
/// single-slot scope (slot 0 = the input tuple).
class FilterOperator : public Operator {
 public:
  explicit FilterOperator(BoundExprPtr predicate)
      : predicate_(std::move(predicate)), scratch_(1) {}

  Status ProcessTuple(size_t, const Tuple& tuple) override {
    scratch_.SetTuple(0, &tuple);
    ESLEV_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*predicate_, scratch_.Row()));
    if (pass) return Emit(tuple);
    return Status::OK();
  }

 private:
  BoundExprPtr predicate_;
  RowScratch scratch_;
};

/// \brief Projects each input tuple (slot 0) through bound expressions
/// into the output schema; the output tuple keeps the input timestamp.
class ProjectOperator : public Operator {
 public:
  ProjectOperator(std::vector<BoundExprPtr> exprs, SchemaPtr out_schema)
      : exprs_(std::move(exprs)),
        out_schema_(std::move(out_schema)),
        scratch_(1) {}

  Status ProcessTuple(size_t, const Tuple& tuple) override {
    scratch_.SetTuple(0, &tuple);
    std::vector<Value> values;
    values.reserve(exprs_.size());
    for (const auto& e : exprs_) {
      ESLEV_ASSIGN_OR_RETURN(Value v, e->Eval(scratch_.Row()));
      values.push_back(std::move(v));
    }
    ESLEV_ASSIGN_OR_RETURN(Tuple out,
                           MakeTuple(out_schema_, std::move(values),
                                     tuple.ts()));
    return Emit(out);
  }

 private:
  std::vector<BoundExprPtr> exprs_;
  SchemaPtr out_schema_;
  RowScratch scratch_;
};

/// \brief Terminal operator delivering tuples to a user function.
class CallbackOperator : public Operator {
 public:
  explicit CallbackOperator(std::function<void(const Tuple&)> fn)
      : fn_(std::move(fn)) {}

  Status ProcessTuple(size_t, const Tuple& tuple) override {
    fn_(tuple);
    return Status::OK();
  }

 private:
  std::function<void(const Tuple&)> fn_;
};

/// \brief Test/bench helper that records everything it receives.
class CollectOperator : public Operator {
 public:
  Status ProcessTuple(size_t, const Tuple& tuple) override {
    tuples_.push_back(tuple);
    return Status::OK();
  }

  const std::vector<Tuple>& tuples() const { return tuples_; }
  void Clear() { tuples_.clear(); }

 private:
  std::vector<Tuple> tuples_;
};

}  // namespace eslev

#endif  // ESLEV_EXEC_BASIC_OPS_H_
