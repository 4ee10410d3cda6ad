#include "exec/aggregate.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "exec/basic_ops.h"
#include "expr/binder.h"
#include "sql/parser.h"

namespace eslev {
namespace {

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::Make({{"tid", TypeId::kString},
                            {"loc", TypeId::kString},
                            {"bp", TypeId::kInt64},
                            {"tagtime", TypeId::kTimestamp}});
    scope_.AddEntry({"s", schema_, 0, false});
  }

  BoundExprPtr Bind(const std::string& text) {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    Binder binder(&scope_, &registry_);
    auto bound = binder.Bind(**parsed);
    EXPECT_TRUE(bound.ok()) << bound.status();
    return std::move(bound).ValueUnsafe();
  }

  AggSpec Agg(const std::string& fn, const std::string& arg) {
    AggSpec spec;
    spec.fn = *registry_.FindAggregate(fn);
    if (arg == "*") {
      spec.count_star = true;
    } else {
      spec.arg = Bind(arg);
    }
    return spec;
  }

  Tuple T(const std::string& tid, const std::string& loc, int64_t bp,
          Timestamp ts) {
    return *MakeTuple(schema_,
                      {Value::String(tid), Value::String(loc), Value::Int(bp),
                       Value::Time(ts)},
                      ts);
  }

  SchemaPtr schema_;
  BindScope scope_;
  FunctionRegistry registry_;
};

TEST_F(AggregateTest, RunningCountEmitsPerTuple) {
  // Example 3 shape: SELECT count(tid) FROM readings WHERE ...
  std::vector<AggSpec> aggs;
  aggs.push_back(Agg("count", "tid"));
  std::vector<BoundExprPtr> proj;
  proj.push_back(std::make_unique<BoundAggRef>(0));
  auto out_schema = Schema::Make({{"count", TypeId::kInt64}});
  AggregateOperator op(std::move(aggs), {}, std::move(proj), nullptr,
                       out_schema, std::nullopt);
  CollectOperator out;
  op.AddSink(&out);

  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(op.OnTuple(0, T("t", "a", i, Seconds(i))).ok());
  }
  ASSERT_EQ(out.tuples().size(), 5u);
  EXPECT_EQ(out.tuples()[0].value(0).int_value(), 1);
  EXPECT_EQ(out.tuples()[4].value(0).int_value(), 5);
}

TEST_F(AggregateTest, GroupByLocation) {
  std::vector<AggSpec> aggs;
  aggs.push_back(Agg("count", "*"));
  std::vector<BoundExprPtr> group;
  group.push_back(Bind("loc"));
  std::vector<BoundExprPtr> proj;
  proj.push_back(Bind("loc"));
  proj.push_back(std::make_unique<BoundAggRef>(0));
  auto out_schema = Schema::Make(
      {{"loc", TypeId::kString}, {"count", TypeId::kInt64}});
  AggregateOperator op(std::move(aggs), std::move(group), std::move(proj),
                       nullptr, out_schema, std::nullopt);
  CollectOperator out;
  op.AddSink(&out);

  ASSERT_TRUE(op.OnTuple(0, T("a", "dock", 0, 1)).ok());
  ASSERT_TRUE(op.OnTuple(0, T("b", "gate", 0, 2)).ok());
  ASSERT_TRUE(op.OnTuple(0, T("c", "dock", 0, 3)).ok());
  ASSERT_EQ(out.tuples().size(), 3u);
  EXPECT_EQ(out.tuples()[0].value(1).int_value(), 1);  // dock: 1
  EXPECT_EQ(out.tuples()[1].value(1).int_value(), 1);  // gate: 1
  EXPECT_EQ(out.tuples()[2].value(1).int_value(), 2);  // dock: 2
  EXPECT_EQ(op.num_groups(), 2u);
}

TEST_F(AggregateTest, TimeWindowedCountRetracts) {
  // "count the number of products passing through the door every hour" —
  // here a 10-second sliding window.
  std::vector<AggSpec> aggs;
  aggs.push_back(Agg("count", "*"));
  std::vector<BoundExprPtr> proj;
  proj.push_back(std::make_unique<BoundAggRef>(0));
  auto out_schema = Schema::Make({{"count", TypeId::kInt64}});
  WindowSpec w;
  w.length = Seconds(10);
  AggregateOperator op(std::move(aggs), {}, std::move(proj), nullptr,
                       out_schema, w);
  CollectOperator out;
  op.AddSink(&out);

  ASSERT_TRUE(op.OnTuple(0, T("a", "d", 0, Seconds(0))).ok());
  ASSERT_TRUE(op.OnTuple(0, T("b", "d", 0, Seconds(5))).ok());
  ASSERT_TRUE(op.OnTuple(0, T("c", "d", 0, Seconds(12))).ok());  // evicts a? no: 12-10=2>0 yes
  ASSERT_EQ(out.tuples().size(), 3u);
  EXPECT_EQ(out.tuples()[0].value(0).int_value(), 1);
  EXPECT_EQ(out.tuples()[1].value(0).int_value(), 2);
  EXPECT_EQ(out.tuples()[2].value(0).int_value(), 2);  // a evicted
}

TEST_F(AggregateTest, WindowedMinMaxRecompute) {
  // Max blood pressure over a sliding window (min/max cannot retract, so
  // the operator recomputes from the buffer).
  std::vector<AggSpec> aggs;
  aggs.push_back(Agg("max", "bp"));
  aggs.push_back(Agg("min", "bp"));
  std::vector<BoundExprPtr> proj;
  proj.push_back(std::make_unique<BoundAggRef>(0));
  proj.push_back(std::make_unique<BoundAggRef>(1));
  auto out_schema =
      Schema::Make({{"maxbp", TypeId::kInt64}, {"minbp", TypeId::kInt64}});
  WindowSpec w;
  w.length = Seconds(10);
  AggregateOperator op(std::move(aggs), {}, std::move(proj), nullptr,
                       out_schema, w);
  CollectOperator out;
  op.AddSink(&out);

  ASSERT_TRUE(op.OnTuple(0, T("p", "d", 180, Seconds(0))).ok());
  ASSERT_TRUE(op.OnTuple(0, T("p", "d", 120, Seconds(5))).ok());
  ASSERT_TRUE(op.OnTuple(0, T("p", "d", 130, Seconds(12))).ok());  // 180 evicted
  ASSERT_EQ(out.tuples().size(), 3u);
  EXPECT_EQ(out.tuples()[0].value(0).int_value(), 180);
  EXPECT_EQ(out.tuples()[1].value(0).int_value(), 180);
  EXPECT_EQ(out.tuples()[2].value(0).int_value(), 130);  // recomputed
  EXPECT_EQ(out.tuples()[2].value(1).int_value(), 120);
}

TEST_F(AggregateTest, RowWindowedCount) {
  std::vector<AggSpec> aggs;
  aggs.push_back(Agg("count", "*"));
  std::vector<BoundExprPtr> proj;
  proj.push_back(std::make_unique<BoundAggRef>(0));
  auto out_schema = Schema::Make({{"count", TypeId::kInt64}});
  WindowSpec w;
  w.row_based = true;
  w.length = 3;
  AggregateOperator op(std::move(aggs), {}, std::move(proj), nullptr,
                       out_schema, w);
  CollectOperator out;
  op.AddSink(&out);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(op.OnTuple(0, T("t", "d", i, Seconds(i))).ok());
  }
  ASSERT_EQ(out.tuples().size(), 6u);
  EXPECT_EQ(out.tuples()[1].value(0).int_value(), 2);
  EXPECT_EQ(out.tuples()[2].value(0).int_value(), 3);
  EXPECT_EQ(out.tuples()[5].value(0).int_value(), 3);  // capped at 3 rows
}

TEST_F(AggregateTest, HavingFiltersEmission) {
  std::vector<AggSpec> aggs;
  aggs.push_back(Agg("count", "*"));
  std::vector<BoundExprPtr> proj;
  proj.push_back(std::make_unique<BoundAggRef>(0));
  auto out_schema = Schema::Make({{"count", TypeId::kInt64}});
  // HAVING count > 2 — reference the agg via a BoundAggRef comparison.
  BoundExprPtr having = std::make_unique<BoundBinary>(
      BinaryOp::kGt, std::make_unique<BoundAggRef>(0),
      std::make_unique<BoundLiteral>(Value::Int(2)));
  AggregateOperator op(std::move(aggs), {}, std::move(proj),
                       std::move(having), out_schema, std::nullopt);
  CollectOperator out;
  op.AddSink(&out);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(op.OnTuple(0, T("t", "d", 0, i)).ok());
  }
  ASSERT_EQ(out.tuples().size(), 3u);  // counts 3, 4, 5 pass
  EXPECT_EQ(out.tuples()[0].value(0).int_value(), 3);
}

TEST_F(AggregateTest, SumAndAvg) {
  std::vector<AggSpec> aggs;
  aggs.push_back(Agg("sum", "bp"));
  aggs.push_back(Agg("avg", "bp"));
  std::vector<BoundExprPtr> proj;
  proj.push_back(std::make_unique<BoundAggRef>(0));
  proj.push_back(std::make_unique<BoundAggRef>(1));
  auto out_schema =
      Schema::Make({{"sum", TypeId::kInt64}, {"avg", TypeId::kDouble}});
  AggregateOperator op(std::move(aggs), {}, std::move(proj), nullptr,
                       out_schema, std::nullopt);
  CollectOperator out;
  op.AddSink(&out);
  ASSERT_TRUE(op.OnTuple(0, T("t", "d", 10, 1)).ok());
  ASSERT_TRUE(op.OnTuple(0, T("t", "d", 20, 2)).ok());
  ASSERT_EQ(out.tuples().size(), 2u);
  EXPECT_EQ(out.tuples()[1].value(0).int_value(), 30);
  EXPECT_DOUBLE_EQ(out.tuples()[1].value(1).double_value(), 15.0);
}

// A continuous GROUP BY a DOUBLE groups by exact value: keys that agree
// to six decimals, or that print as 0.000000, stay apart.
TEST(AggregateGroupKeyTest, DoubleKeysGroupByExactValue) {
  Engine engine;
  ASSERT_TRUE(engine.ExecuteScript("CREATE STREAM s(v DOUBLE, seen_time);")
                  .ok());
  auto q = engine.RegisterQuery("SELECT v, COUNT(*) FROM s GROUP BY v");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<int64_t> counts;
  ASSERT_TRUE(engine
                  .Subscribe(q->output_stream,
                             [&](const Tuple& t) {
                               counts.push_back(t.value(1).int_value());
                             })
                  .ok());
  const std::vector<double> values = {0.1234561, 0.1234562, 1e-7, 0.0};
  for (size_t i = 0; i < values.size(); ++i) {
    const Timestamp ts = Seconds(static_cast<int64_t>(i) + 1);
    ASSERT_TRUE(engine
                    .Push("s", {Value::Double(values[i]), Value::Time(ts)},
                          ts)
                    .ok());
  }
  EXPECT_EQ(counts, (std::vector<int64_t>{1, 1, 1, 1}));
}

}  // namespace
}  // namespace eslev
