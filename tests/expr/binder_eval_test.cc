// Bind-and-evaluate tests: parse an expression, bind it against a scope,
// evaluate against concrete tuples.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "expr/binder.h"
#include "sql/parser.h"

namespace eslev {
namespace {

class BinderEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    readings_ = Schema::Make({{"reader_id", TypeId::kString},
                              {"tag_id", TypeId::kString},
                              {"read_time", TypeId::kTimestamp}});
    scope_.AddEntry({"r1", readings_, 0, false});
    scope_.AddEntry({"r2", readings_, 1, false});  // outer scope
  }

  Result<Value> Eval(const std::string& text, const Tuple* t1,
                     const Tuple* t2 = nullptr) {
    auto parsed = ParseExpression(text);
    if (!parsed.ok()) return parsed.status();
    Binder binder(&scope_, &registry_);
    auto bound = binder.Bind(**parsed);
    if (!bound.ok()) return bound.status();
    RowScratch scratch(scope_.size());
    scratch.SetTuple(0, t1);
    scratch.SetTuple(1, t2);
    return (*bound)->Eval(scratch.Row());
  }

  Tuple MakeReading(const std::string& reader, const std::string& tag,
                    Timestamp ts) {
    return *MakeTuple(readings_,
                      {Value::String(reader), Value::String(tag),
                       Value::Time(ts)},
                      ts);
  }

  SchemaPtr readings_;
  BindScope scope_;
  FunctionRegistry registry_;
};

TEST_F(BinderEvalTest, QualifiedAndUnqualifiedColumns) {
  Tuple a = MakeReading("rd1", "tagA", Seconds(1));
  Tuple b = MakeReading("rd2", "tagB", Seconds(2));
  // Unqualified `tag_id` is ambiguous only within one depth; r1 is depth 0
  // and r2 depth 1, so it resolves to r1.
  EXPECT_EQ(Eval("tag_id", &a, &b)->string_value(), "tagA");
  EXPECT_EQ(Eval("r2.tag_id", &a, &b)->string_value(), "tagB");
  EXPECT_EQ(Eval("r1.reader_id", &a, &b)->string_value(), "rd1");
}

TEST_F(BinderEvalTest, CrossSlotComparison) {
  Tuple a = MakeReading("rd1", "tagA", Seconds(1));
  Tuple b = MakeReading("rd1", "tagA", Seconds(2));
  EXPECT_TRUE(
      Eval("r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id", &a, &b)
          ->bool_value());
  Tuple c = MakeReading("rd9", "tagA", Seconds(2));
  EXPECT_FALSE(
      Eval("r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id", &a, &c)
          ->bool_value());
}

TEST_F(BinderEvalTest, TimestampAlgebra) {
  Tuple a = MakeReading("rd1", "t", Seconds(10));
  Tuple b = MakeReading("rd1", "t", Seconds(14));
  // ts - ts -> duration (INT micros); compare against interval literal.
  EXPECT_TRUE(
      Eval("r2.read_time - r1.read_time <= 5 SECONDS", &a, &b)->bool_value());
  EXPECT_FALSE(
      Eval("r2.read_time - r1.read_time <= 3 SECONDS", &a, &b)->bool_value());
  // ts + duration -> ts.
  auto v = Eval("r1.read_time + 5 SECONDS", &a, &b);
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->type(), TypeId::kTimestamp);
  EXPECT_EQ(v->time_value(), Seconds(15));
}

TEST_F(BinderEvalTest, ArithmeticAndDivision) {
  Tuple a = MakeReading("r", "t", 0);
  EXPECT_EQ(Eval("1 + 2 * 3", &a)->int_value(), 7);
  EXPECT_EQ(Eval("7 / 2", &a)->int_value(), 3);
  EXPECT_DOUBLE_EQ(Eval("7 / 2.0", &a)->double_value(), 3.5);
  EXPECT_EQ(Eval("7 % 4", &a)->int_value(), 3);
  EXPECT_TRUE(Eval("1 / 0", &a).status().IsExecutionError());
  EXPECT_TRUE(Eval("1 % 0", &a).status().IsExecutionError());
  EXPECT_EQ(Eval("-(3 - 5)", &a)->int_value(), 2);
}

TEST_F(BinderEvalTest, LikeOnEpcPatterns) {
  Tuple a = MakeReading("r", "20.17.7042", 0);
  EXPECT_TRUE(Eval("r1.tag_id LIKE '20.%.%'", &a)->bool_value());
  EXPECT_FALSE(Eval("r1.tag_id LIKE '21.%.%'", &a)->bool_value());
  EXPECT_TRUE(Eval("r1.tag_id NOT LIKE '21.%.%'", &a)->bool_value());
  EXPECT_TRUE(Eval("r1.tag_id LIKE 3", &a).status().IsTypeError());
}

TEST_F(BinderEvalTest, UdfInPredicate) {
  // Example 3's WHERE clause, evaluated directly.
  Tuple in_range = MakeReading("r", "20.17.7042", 0);
  Tuple out_range = MakeReading("r", "20.17.142", 0);
  const char* pred =
      "tag_id LIKE '20.%.%' AND extract_serial(tag_id) > 5000 "
      "AND extract_serial(tag_id) < 9999";
  EXPECT_TRUE(Eval(pred, &in_range)->bool_value());
  EXPECT_FALSE(Eval(pred, &out_range)->bool_value());
}

TEST_F(BinderEvalTest, ThreeValuedLogic) {
  Tuple a = MakeReading("r", "t", 0);
  EXPECT_TRUE(Eval("NULL OR TRUE", &a)->bool_value());
  EXPECT_FALSE(Eval("NULL AND FALSE", &a)->bool_value());
  EXPECT_TRUE(Eval("NULL AND TRUE", &a)->is_null());
  EXPECT_TRUE(Eval("NOT NULL", &a)->is_null());
  EXPECT_TRUE(Eval("NULL = NULL", &a)->is_null());  // SQL, not structural
  EXPECT_TRUE(Eval("1 = NULL", &a)->is_null());
}

TEST_F(BinderEvalTest, NullSlotYieldsNull) {
  // r2 unbound (e.g. not-yet-matched stream): its columns read as NULL.
  Tuple a = MakeReading("r", "t", 0);
  EXPECT_TRUE(Eval("r2.tag_id", &a, nullptr)->is_null());
}

TEST_F(BinderEvalTest, BindErrors) {
  Tuple a = MakeReading("r", "t", 0);
  EXPECT_TRUE(Eval("nosuchcol", &a).status().IsBindError());
  EXPECT_TRUE(Eval("r9.tag_id", &a).status().IsBindError());
  EXPECT_TRUE(Eval("nosuchfn(tag_id)", &a).status().IsNotFound());
  EXPECT_TRUE(Eval("substr(tag_id)", &a).status().IsBindError());  // arity
  EXPECT_TRUE(Eval("count(tag_id)", &a).status().IsBindError());  // no hook
  // `.previous.` requires a starred SEQ argument.
  EXPECT_TRUE(Eval("r1.previous.tag_id", &a).status().IsBindError());
}

TEST_F(BinderEvalTest, AmbiguousWithinSameDepth) {
  BindScope scope;
  scope.AddEntry({"a", readings_, 0, false});
  scope.AddEntry({"b", readings_, 0, false});
  FunctionRegistry reg;
  Binder binder(&scope, &reg);
  auto parsed = ParseExpression("tag_id");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(binder.Bind(**parsed).status().IsBindError());
}

TEST_F(BinderEvalTest, EvalPredicateSemantics) {
  Tuple a = MakeReading("r", "t", 0);
  auto check = [&](const std::string& text) -> bool {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok());
    Binder binder(&scope_, &registry_);
    auto bound = binder.Bind(**parsed);
    EXPECT_TRUE(bound.ok()) << bound.status();
    RowScratch scratch(scope_.size());
    scratch.SetTuple(0, &a);
    auto r = EvalPredicate(**bound, scratch.Row());
    EXPECT_TRUE(r.ok()) << r.status();
    return *r;
  };
  EXPECT_TRUE(check("TRUE"));
  EXPECT_FALSE(check("FALSE"));
  EXPECT_FALSE(check("NULL AND TRUE"));  // UNKNOWN rejects
}

// Star-group aggregates evaluated against an assembled group.
TEST_F(BinderEvalTest, StarAggregates) {
  BindScope scope;
  scope.AddEntry({"R1", readings_, 0, true});   // starred
  scope.AddEntry({"R2", readings_, 1, false});
  FunctionRegistry reg;
  Binder binder(&scope, &reg);

  std::vector<Tuple> group = {MakeReading("p", "tag1", Seconds(1)),
                              MakeReading("p", "tag2", Seconds(2)),
                              MakeReading("p", "tag3", Seconds(3))};
  Tuple r2 = MakeReading("c", "case9", Seconds(6));

  RowScratch scratch(2);
  scratch.SetTuple(0, &group.back());
  scratch.SetTuple(1, &r2);
  scratch.SetStarGroup(0, &group);

  auto eval = [&](const std::string& text) {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    auto bound = binder.Bind(**parsed);
    EXPECT_TRUE(bound.ok()) << bound.status();
    return (*bound)->Eval(scratch.Row());
  };

  EXPECT_EQ(eval("COUNT(R1*)")->int_value(), 3);
  EXPECT_EQ(eval("FIRST(R1*).read_time")->time_value(), Seconds(1));
  EXPECT_EQ(eval("LAST(R1*).tag_id")->string_value(), "tag3");
  EXPECT_TRUE(
      eval("R2.read_time - LAST(R1*).read_time <= 5 SECONDS")->bool_value());
  // FIRST on a non-star alias is a bind error.
  auto parsed = ParseExpression("FIRST(R2*).tag_id");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(binder.Bind(**parsed).status().IsBindError());
}

TEST_F(BinderEvalTest, PreviousReferenceOnStarGroup) {
  BindScope scope;
  scope.AddEntry({"R1", readings_, 0, true});
  FunctionRegistry reg;
  Binder binder(&scope, &reg);

  Tuple prev = MakeReading("p", "tag1", Seconds(1));
  Tuple cur = MakeReading("p", "tag2", Milliseconds(1800));

  auto parsed =
      ParseExpression("R1.read_time - R1.previous.read_time <= 1 SECONDS");
  ASSERT_TRUE(parsed.ok());
  auto bound = binder.Bind(**parsed);
  ASSERT_TRUE(bound.ok()) << bound.status();

  RowScratch scratch(1);
  scratch.SetTuple(0, &cur);
  scratch.SetPrevious(0, &prev);
  EXPECT_TRUE((*bound)->Eval(scratch.Row())->bool_value());

  // First tuple of a group: previous is NULL -> predicate is UNKNOWN.
  scratch.SetPrevious(0, nullptr);
  EXPECT_TRUE((*bound)->Eval(scratch.Row())->is_null());
}

// A comparison reads a column or literal operand in place
// (BoundExpr::Peek) and evaluates any other operand. Every operator must
// give the same result whichever form its operands take, and that result
// must be SQL's: NULL when a side is NULL, else Value::Compare's verdict
// or its TypeError.
TEST_F(BinderEvalTest, ComparisonsAgreeAcrossOperandForms) {
  const SchemaPtr schema = Schema::Make({{"i", TypeId::kInt64},
                                         {"d", TypeId::kDouble},
                                         {"s", TypeId::kString}});
  BindScope scope;
  scope.AddEntry({"a", schema, 0, false});
  scope.AddEntry({"b", schema, 1, false});
  const std::string epc = "urn:epc:id:sgtin:0614141.107346.0001";
  struct Row {
    Tuple tuple;
    std::vector<std::string> literals;  // each column spelled as SQL
  };
  const auto row = [&](Value i, Value d, Value s,
                       std::vector<std::string> literals) {
    return Row{*MakeTuple(schema, {std::move(i), std::move(d), std::move(s)},
                          0),
               std::move(literals)};
  };
  const std::vector<Row> rows = {
      row(Value::Int(0), Value::Double(0.0), Value::String(""),
          {"0", "0.0", "''"}),
      row(Value::Int(5), Value::Double(5.0), Value::String("t"),
          {"5", "5.0", "'t'"}),
      row(Value::Int(7), Value::Double(2.5), Value::String(epc),
          {"7", "2.5", "'" + epc + "'"}),
      row(Value::Null(), Value::Null(), Value::Null(),
          {"NULL", "NULL", "NULL"}),
  };
  const std::vector<std::string> columns = {"i", "d", "s"};
  const auto eval = [&](const std::string& text, const Tuple& x,
                        const Tuple& y) -> Result<Value> {
    auto parsed = ParseExpression(text);
    if (!parsed.ok()) return parsed.status();
    Binder binder(&scope, &registry_);
    auto bound = binder.Bind(**parsed);
    if (!bound.ok()) return bound.status();
    RowScratch scratch(2);
    scratch.SetTuple(0, &x);
    scratch.SetTuple(1, &y);
    return (*bound)->Eval(scratch.Row());
  };
  const auto reference = [](const std::string& op, const Value& l,
                            const Value& r) -> Result<Value> {
    if (l.is_null() || r.is_null()) return Value::Null();
    ESLEV_ASSIGN_OR_RETURN(int c, l.Compare(r));
    if (op == "=") return Value::Bool(c == 0);
    if (op == "<>") return Value::Bool(c != 0);
    if (op == "<") return Value::Bool(c < 0);
    if (op == "<=") return Value::Bool(c <= 0);
    if (op == ">") return Value::Bool(c > 0);
    return Value::Bool(c >= 0);
  };
  size_t checked = 0;
  for (const std::string op : {"=", "<>", "<", "<=", ">", ">="}) {
    for (const Row& x : rows) {
      for (const Row& y : rows) {
        for (size_t ca = 0; ca < columns.size(); ++ca) {
          for (size_t cb = 0; cb < columns.size(); ++cb) {
            const std::string l = "a." + columns[ca];
            const std::string r = "b." + columns[cb];
            const Result<Value> want =
                reference(op, x.tuple.value(ca), y.tuple.value(cb));
            for (const std::string& form :
                 {l + " " + op + " " + r, x.literals[ca] + " " + op + " " + r,
                  l + " " + op + " " + y.literals[cb],
                  x.literals[ca] + " " + op + " " + y.literals[cb],
                  "coalesce(" + l + ") " + op + " coalesce(" + r + ")"}) {
              const Result<Value> got = eval(form, x.tuple, y.tuple);
              ++checked;
              ASSERT_EQ(got.ok(), want.ok())
                  << form << ": " << got.status().ToString();
              if (want.ok()) {
                EXPECT_TRUE(*got == *want)
                    << form << ": " << got->ToString() << ", want "
                    << want->ToString();
              } else {
                EXPECT_EQ(got.status().code(), want.status().code()) << form;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 6u * 4 * 4 * 3 * 3 * 5);
}

// `.previous.` on the first tuple of a star group is NULL, so a
// comparison with it is UNKNOWN and the predicate rejects, whether the
// other side is a column or a literal, and whether the row binds no
// previous tuple for the slot or no previous tuples at all.
TEST_F(BinderEvalTest, PreviousOnFirstTupleRejectsThroughComparisons) {
  BindScope scope;
  scope.AddEntry({"R1", readings_, 0, true});
  Tuple prev = MakeReading("p", "tag1", Seconds(1));
  Tuple cur = MakeReading("p", "tag2", Seconds(2));
  for (const std::string text :
       {"R1.previous.tag_id = R1.tag_id", "R1.previous.tag_id <> 'tag1'",
        "'tag1' = R1.previous.tag_id", "R1.previous.read_time < R1.read_time"}) {
    auto parsed = ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    Binder binder(&scope, &registry_);
    auto bound = binder.Bind(**parsed);
    ASSERT_TRUE(bound.ok()) << text << ": " << bound.status();

    RowScratch scratch(1);
    scratch.SetTuple(0, &cur);
    EXPECT_TRUE((*bound)->Eval(scratch.Row())->is_null()) << text;
    EXPECT_FALSE(*EvalPredicate(**bound, scratch.Row())) << text;

    EvalRow no_prevs = scratch.Row();
    no_prevs.prev_slots = nullptr;
    EXPECT_TRUE((*bound)->Eval(no_prevs)->is_null()) << text;

    scratch.SetPrevious(0, &prev);
    EXPECT_FALSE((*bound)->Eval(scratch.Row())->is_null()) << text;
  }
}

// A column reference the row cannot satisfy (a column beyond the tuple,
// or a slot beyond the row) still fails with its ExecutionError when it
// is a comparison operand, on either side.
TEST_F(BinderEvalTest, OutOfRangeColumnErrorsThroughComparison) {
  Tuple a = MakeReading("r", "t", 0);
  RowScratch scratch(1);
  scratch.SetTuple(0, &a);
  const auto column = [](size_t slot, size_t col) {
    return std::make_unique<BoundColumnRef>(slot, col, false, "r1.missing");
  };
  const auto literal = [] {
    return std::make_unique<BoundLiteral>(Value::String("t"));
  };
  const BoundBinary left(BinaryOp::kEq, column(0, 5), literal());
  const BoundBinary right(BinaryOp::kLt, literal(), column(0, 5));
  const BoundBinary slot(BinaryOp::kGe, column(3, 0), column(0, 1));
  for (const BoundBinary* cmp : {&left, &right, &slot}) {
    EXPECT_TRUE(cmp->Eval(scratch.Row()).status().IsExecutionError());
    EXPECT_TRUE(EvalPredicate(*cmp, scratch.Row()).status().IsExecutionError());
  }
}

// NaN follows PostgreSQL's total order (DESIGN.md §5): it equals only
// NaN and sorts above every number, so `v = 5` no longer passes a NaN.
TEST(NanComparisonTest, EqualsAndLessFollowTotalOrder) {
  const SchemaPtr schema = Schema::Make({{"v", TypeId::kDouble}});
  BindScope scope;
  scope.AddEntry({"m", schema, 0, false});
  FunctionRegistry registry;
  const Tuple nan = *MakeTuple(
      schema, {Value::Double(std::numeric_limits<double>::quiet_NaN())}, 0);
  const Tuple five = *MakeTuple(schema, {Value::Double(5)}, 0);
  const auto eval = [&](const std::string& text, const Tuple& t) {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    Binder binder(&scope, &registry);
    auto bound = binder.Bind(**parsed);
    EXPECT_TRUE(bound.ok()) << bound.status();
    RowScratch scratch(1);
    scratch.SetTuple(0, &t);
    return *EvalPredicate(**bound, scratch.Row());
  };
  EXPECT_FALSE(eval("v = 5", nan));
  EXPECT_TRUE(eval("v = 5", five));
  EXPECT_TRUE(eval("v <> 5", nan));
  EXPECT_TRUE(eval("v = v", nan));
  EXPECT_FALSE(eval("v < 5", nan));
  EXPECT_TRUE(eval("v > 5", nan));
  EXPECT_TRUE(eval("5 < v", nan));
  EXPECT_FALSE(eval("v < v", nan));
}

}  // namespace
}  // namespace eslev
