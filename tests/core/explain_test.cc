#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"

namespace eslev {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_
                    .ExecuteScript(R"sql(
      CREATE STREAM readings(reader_id, tag_id, read_time);
      CREATE STREAM cleaned(reader_id, tag_id, read_time);
      CREATE STREAM R1(readerid, tagid, tagtime);
      CREATE STREAM R2(readerid, tagid, tagtime);
      CREATE STREAM C1(readerid, tagid, tagtime);
      CREATE STREAM C2(readerid, tagid, tagtime);
      CREATE STREAM C3(readerid, tagid, tagtime);
      CREATE STREAM C4(readerid, tagid, tagtime);
      CREATE TABLE object_movement(tagid, location, start_time);
    )sql")
                    .ok());
  }

  std::string Explain(const std::string& sql) {
    auto r = engine_.Explain(sql);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? *r : "";
  }

  Engine engine_;
};

TEST_F(ExplainTest, DedupPipeline) {
  std::string plan = Explain(R"sql(
    INSERT INTO cleaned
    SELECT * FROM readings AS r1
    WHERE NOT EXISTS
      (SELECT * FROM TABLE( readings OVER
          (RANGE 1 seconds PRECEDING CURRENT)) AS r2
       WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)
  )sql");
  EXPECT_NE(plan.find("Source: stream readings"), std::string::npos);
  EXPECT_NE(plan.find("WindowedNotExists"), std::string::npos);
  EXPECT_NE(plan.find("same stream"), std::string::npos);
  EXPECT_NE(plan.find("keyed on (reader_id, tag_id)"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("-> stream cleaned"), std::string::npos) << plan;
}

TEST_F(ExplainTest, UnkeyedAntiJoinPrintsNoKeys) {
  // An OR hides the equalities from the key split: one bucket.
  std::string plan = Explain(R"sql(
    SELECT * FROM readings AS r1
    WHERE NOT EXISTS
      (SELECT * FROM TABLE( readings OVER
          (RANGE 1 seconds PRECEDING CURRENT)) AS r2
       WHERE (r2.tag_id = r1.tag_id) OR 1 = 0)
  )sql");
  EXPECT_NE(plan.find("WindowedNotExists"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("keyed on"), std::string::npos) << plan;
}

TEST_F(ExplainTest, SeqPipeline) {
  std::string plan = Explain(R"sql(
    SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
    FROM R1, R2
    WHERE SEQ(R1*, R2) MODE CHRONICLE
      AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
      AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
  )sql");
  EXPECT_NE(plan.find("SeqOperator: SEQ(R1*, R2)"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("MODE CHRONICLE"), std::string::npos);
  EXPECT_NE(plan.find("1 pairwise constraint(s)"), std::string::npos);
  EXPECT_NE(plan.find("Output: ("), std::string::npos);
}

std::string Example6(const std::string& mode, const std::string& equalities) {
  return "SELECT C4.tagid, C1.tagtime, C4.tagtime FROM C1, C2, C3, C4"
         " WHERE SEQ(C1, C2, C3, C4) OVER [1 SECONDS PRECEDING C4] MODE " +
         mode + " AND " + equalities;
}

TEST_F(ExplainTest, SeqKeyedOnTagEqualityClass) {
  // Chained and all-against-C1 equalities form the same class.
  for (const char* equalities :
       {"C1.tagid = C2.tagid AND C2.tagid = C3.tagid AND C3.tagid = C4.tagid",
        "C1.tagid = C2.tagid AND C1.tagid = C3.tagid AND "
        "C1.tagid = C4.tagid"}) {
    const std::string plan = Explain(Example6("CHRONICLE", equalities));
    EXPECT_NE(plan.find("final check(s), keyed on (C1.tagid, C2.tagid, "
                        "C3.tagid, C4.tagid)"),
              std::string::npos)
        << plan;
  }
}

TEST_F(ExplainTest, UnkeyedSeqPrintsNoKeys) {
  for (const std::string& sql :
       {Example6("CONSECUTIVE",
                 "C1.tagid = C2.tagid AND C2.tagid = C3.tagid AND "
                 "C3.tagid = C4.tagid"),
        Example6("UNRESTRICTED",
                 "C1.tagid < C2.tagid AND C2.tagid < C3.tagid AND "
                 "C3.tagid < C4.tagid")}) {
    const std::string plan = Explain(sql);
    EXPECT_NE(plan.find("SeqOperator: SEQ(C1, C2, C3, C4)"), std::string::npos)
        << plan;
    EXPECT_EQ(plan.find("keyed on"), std::string::npos) << plan;
  }
}

TEST_F(ExplainTest, TableAntiJoinWithProbe) {
  std::string plan = Explain(R"sql(
    INSERT INTO object_movement
    SELECT tag_id, reader_id, read_time FROM readings WHERE NOT EXISTS
      (SELECT tagid FROM object_movement WHERE tagid = tag_id)
  )sql");
  EXPECT_NE(plan.find("TableNotExists"), std::string::npos) << plan;
  EXPECT_NE(plan.find("hash probe on tagid"), std::string::npos) << plan;
  EXPECT_NE(plan.find("-> table object_movement"), std::string::npos);
}

TEST_F(ExplainTest, AggregatePipeline) {
  std::string plan = Explain(
      "SELECT count(tag_id) FROM readings WHERE tag_id LIKE '20.%'");
  EXPECT_NE(plan.find("Filter"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Aggregate: count(tag_id)"), std::string::npos);
}

TEST_F(ExplainTest, ExplainDoesNotRegister) {
  // Explaining must not leave live pipelines behind.
  (void)Explain("SELECT count(tag_id) FROM readings");
  size_t outputs = 0;
  ASSERT_TRUE(engine_
                  .Push("readings",
                        {Value::String("r"), Value::String("t"),
                         Value::Time(1)},
                        1)
                  .ok());
  (void)outputs;
  // No derived query stream was created.
  EXPECT_EQ(engine_.FindStream("_q1"), nullptr);
}

TEST_F(ExplainTest, Errors) {
  EXPECT_TRUE(engine_.Explain("CREATE STREAM x(a)").status().IsInvalid());
  EXPECT_TRUE(engine_.Explain("SELECT * FROM missing").status().IsNotFound());
  EXPECT_TRUE(engine_.Explain("not sql").status().IsParseError());
}

}  // namespace
}  // namespace eslev
