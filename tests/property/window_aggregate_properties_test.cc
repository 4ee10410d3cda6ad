// Property sweeps for windowed aggregation: the operator's incremental
// (retract) and recompute paths must both equal a brute-force oracle
// over the window contents, for random value streams.

#include <gtest/gtest.h>

#include <ostream>
#include <random>

#include "exec/aggregate.h"
#include "exec/basic_ops.h"
#include "expr/binder.h"
#include "sql/parser.h"

namespace eslev {
namespace {

struct AggParam {
  uint32_t seed;
  int window_s;
  bool row_window;
};

// gtest would otherwise print the struct's raw bytes, padding included,
// into every test name.
void PrintTo(const AggParam& p, std::ostream* os) {
  *os << "seed=" << p.seed << (p.row_window ? " rows=" : " range_s=")
      << p.window_s;
}

class WindowAggPropertyTest : public ::testing::TestWithParam<AggParam> {
 protected:
  void SetUp() override {
    schema_ = Schema::Make(
        {{"v", TypeId::kInt64}, {"t_time", TypeId::kTimestamp}});
    scope_.AddEntry({"s", schema_, 0, false});
  }

  BoundExprPtr Bind(const std::string& text) {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok());
    Binder binder(&scope_, &registry_);
    auto bound = binder.Bind(**parsed);
    EXPECT_TRUE(bound.ok()) << bound.status();
    return std::move(bound).ValueUnsafe();
  }

  SchemaPtr schema_;
  BindScope scope_;
  FunctionRegistry registry_;
};

TEST_P(WindowAggPropertyTest, IncrementalEqualsBruteForce) {
  const auto& p = GetParam();
  std::mt19937 rng(p.seed);
  std::uniform_int_distribution<int64_t> value_dist(-50, 200);
  std::uniform_int_distribution<Duration> gap_dist(Milliseconds(100),
                                                   Seconds(3));

  // Operator under test: count, sum (retractable), min, max (recompute).
  std::vector<AggSpec> aggs;
  for (const char* name : {"count", "sum", "min", "max"}) {
    AggSpec spec;
    spec.fn = *registry_.FindAggregate(name);
    spec.arg = Bind("v");
    aggs.push_back(std::move(spec));
  }
  std::vector<BoundExprPtr> proj;
  for (size_t i = 0; i < 4; ++i) {
    proj.push_back(std::make_unique<BoundAggRef>(i));
  }
  auto out_schema = Schema::Make({{"cnt", TypeId::kInt64},
                                  {"sum", TypeId::kDouble},
                                  {"min", TypeId::kInt64},
                                  {"max", TypeId::kInt64}});
  WindowSpec w;
  w.row_based = p.row_window;
  w.length = p.row_window ? p.window_s : Seconds(p.window_s);
  AggregateOperator op(std::move(aggs), {}, std::move(proj), nullptr,
                       out_schema, w);
  CollectOperator out;
  op.AddSink(&out);

  // Feed a random stream, checking against the oracle at each step.
  std::vector<Tuple> history;
  Timestamp ts = 0;
  for (int i = 0; i < 120; ++i) {
    ts += gap_dist(rng);
    Tuple t = *MakeTuple(schema_, {Value::Int(value_dist(rng)),
                                   Value::Time(ts)},
                         ts);
    history.push_back(t);
    ASSERT_TRUE(op.OnTuple(0, t).ok());

    // Oracle: recompute over the window contents.
    std::vector<const Tuple*> in_window;
    if (p.row_window) {
      const size_t start = history.size() > static_cast<size_t>(p.window_s)
                               ? history.size() - p.window_s
                               : 0;
      for (size_t j = start; j < history.size(); ++j) {
        in_window.push_back(&history[j]);
      }
    } else {
      for (const Tuple& h : history) {
        if (h.ts() >= ts - Seconds(p.window_s)) in_window.push_back(&h);
      }
    }
    int64_t cnt = static_cast<int64_t>(in_window.size());
    int64_t sum = 0, mn = INT64_MAX, mx = INT64_MIN;
    for (const Tuple* h : in_window) {
      const int64_t v = h->value(0).int_value();
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }

    ASSERT_EQ(out.tuples().size(), static_cast<size_t>(i + 1));
    const Tuple& got = out.tuples().back();
    EXPECT_EQ(got.value(0).int_value(), cnt) << "count at step " << i;
    EXPECT_DOUBLE_EQ(got.value(1).double_value(),
                     static_cast<double>(sum))
        << "sum at step " << i;
    EXPECT_EQ(got.value(2).int_value(), mn) << "min at step " << i;
    EXPECT_EQ(got.value(3).int_value(), mx) << "max at step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowAggPropertyTest,
    ::testing::Values(AggParam{21, 5, false}, AggParam{22, 10, false},
                      AggParam{23, 30, false}, AggParam{24, 3, true},
                      AggParam{25, 10, true}, AggParam{26, 1, true}),
    [](const ::testing::TestParamInfo<AggParam>& param_info) {
      return std::string(param_info.param.row_window ? "rows" : "range") +
             std::to_string(param_info.param.window_s) + "_seed" +
             std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace eslev
