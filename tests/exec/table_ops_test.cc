// Stream-table operators probe the table with SQL `=`: a DOUBLE table
// column holding 5 matches an INT stream value 5, through the hash index
// and through the unindexed scan alike.

#include <gtest/gtest.h>

#include "core/engine.h"

namespace eslev {
namespace {

class TableProbeTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .ExecuteScript(R"sql(
      CREATE STREAM s(code INT, name);
      CREATE STREAM out(code INT, name);
      CREATE STREAM joined(name, label);
      CREATE TABLE known(code DOUBLE, label);
    )sql")
                    .ok());
    Table* known = engine_.FindTable("known");
    ASSERT_TRUE(known->Insert({Value::Double(5), Value::String("five")}).ok());
    ASSERT_TRUE(
        known->Insert({Value::Double(7.5), Value::String("seven")}).ok());
    ASSERT_TRUE(known->Insert({Value::Null(), Value::String("none")}).ok());
    if (GetParam()) {
      ASSERT_TRUE(known->CreateIndex("code").ok());
    }
  }

  std::vector<std::string> Names(const std::string& stream) {
    std::vector<std::string> names;
    EXPECT_TRUE(engine_
                    .Subscribe(stream,
                               [&names](const Tuple& t) {
                                 names.push_back(t.value(1).ToString());
                               })
                    .ok());
    Push(5, "a");
    Push(6, "b");
    Push(7, "c");
    PushNull("d");
    return names;
  }

  void Push(int64_t code, const std::string& name) {
    ASSERT_TRUE(engine_
                    .Push("s", {Value::Int(code), Value::String(name)},
                          ++clock_)
                    .ok());
  }
  void PushNull(const std::string& name) {
    ASSERT_TRUE(
        engine_.Push("s", {Value::Null(), Value::String(name)}, ++clock_)
            .ok());
  }

  Engine engine_;
  Timestamp clock_ = 0;
};

TEST_P(TableProbeTest, NotExistsProbeUsesSqlEquality) {
  const std::string sql = R"sql(
    INSERT INTO out SELECT * FROM s
    WHERE NOT EXISTS (SELECT * FROM known WHERE known.code = s.code))sql";
  auto plan = engine_.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("hash probe on code"), std::string::npos) << *plan;
  ASSERT_TRUE(engine_.RegisterQuery(sql).ok());
  // 5 matches the DOUBLE 5.0; NULL equals nothing, not even the NULL row.
  EXPECT_EQ(Names("out"), (std::vector<std::string>{"b", "c", "d"}));
}

TEST_P(TableProbeTest, ContextJoinProbeUsesSqlEquality) {
  const std::string sql = R"sql(
    INSERT INTO joined SELECT s.name, known.label FROM s, known
    WHERE known.code = s.code)sql";
  ASSERT_TRUE(engine_.RegisterQuery(sql).ok());
  std::vector<std::string> labels;
  ASSERT_TRUE(engine_
                  .Subscribe("joined",
                             [&labels](const Tuple& t) {
                               labels.push_back(t.value(0).ToString() + "=" +
                                                t.value(1).ToString());
                             })
                  .ok());
  Push(5, "a");
  Push(6, "b");
  PushNull("d");
  EXPECT_EQ(labels, (std::vector<std::string>{"a=five"}));
}

INSTANTIATE_TEST_SUITE_P(IndexedAndScanned, TableProbeTest,
                         ::testing::Bool());

}  // namespace
}  // namespace eslev
