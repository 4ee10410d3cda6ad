// Golden JSON-schema stability tests: the machine-readable shapes of
// `EXPLAIN LINT` (DiagnosticsToJson) and `EXPLAIN COST`
// (QueryCostReport::ToJson) are contracts consumed by eslev_lint, CI
// archive checks and downstream dashboards. Any field rename, removal
// or reorder must fail here first — and for EXPLAIN COST must also
// bump `cost_model_version`.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "analysis/diagnostic.h"
#include "core/engine.h"

namespace eslev {
namespace {

/// Extracts the ordered sequence of JSON object keys (`"key":`) from a
/// JSON text, skipping string *values* so message content never leaks
/// into the schema fingerprint.
std::vector<std::string> JsonKeys(const std::string& json) {
  std::vector<std::string> keys;
  size_t i = 0;
  while (i < json.size()) {
    if (json[i] != '"') {
      ++i;
      continue;
    }
    const size_t start = ++i;
    while (i < json.size() && json[i] != '"') {
      if (json[i] == '\\') ++i;
      ++i;
    }
    const std::string token = json.substr(start, i - start);
    ++i;  // closing quote
    if (i < json.size() && json[i] == ':') keys.push_back(token);
  }
  return keys;
}

TEST(JsonSchemaTest, DiagnosticsToJsonShapeIsStable) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.rule = "test-rule";
  d.message = "the message";
  d.span.offset = 7;
  d.span.length = 11;
  d.span.line = 1;
  d.span.column = 8;
  d.hint = "the hint";
  EXPECT_EQ(DiagnosticsToJson({d}),
            "{\"diagnostics\":[{\"severity\":\"error\",\"rule\":\"test-rule\","
            "\"message\":\"the message\",\"line\":1,\"column\":8,\"offset\":7,"
            "\"length\":11,\"hint\":\"the hint\"}],\"errors\":1,"
            "\"warnings\":0}");
}

TEST(JsonSchemaTest, DiagnosticsToJsonOmitsEmptyHint) {
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.rule = "r";
  d.message = "m";
  EXPECT_EQ(DiagnosticsToJson({d}),
            "{\"diagnostics\":[{\"severity\":\"warning\",\"rule\":\"r\","
            "\"message\":\"m\",\"line\":0,\"column\":1,\"offset\":0,"
            "\"length\":0}],\"errors\":0,\"warnings\":1}");
}

class ExplainCostSchemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Status status = engine_.ExecuteScript(R"sql(
      CREATE STREAM R1(readerid, tagid, tagtime);
      CREATE STREAM R2(readerid, tagid, tagtime);
    )sql");
    ASSERT_TRUE(status.ok()) << status;
  }

  Engine engine_;
};

TEST_F(ExplainCostSchemaTest, KeyOrderIsLocked) {
  const Result<std::string> out = engine_.Explain(
      "EXPLAIN COST SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 "
      "SECONDS PRECEDING R2] AND R1.tagid = R2.tagid;");
  ASSERT_TRUE(out.ok()) << out.status();
  const std::vector<std::string> expected = {
      "cost_model_version", "statement",  "operators",
      "op",                 "label",      "in_rate",
      "out_rate",           "cpu_cost",   "state",
      "bounded",            "tuples",     "growth_per_sec",
      "formula",            "state_gauges",
      "totals",             "cpu_cost",   "state_bounded",
      "state_tuples",       "state_growth_per_sec",
      "sharding",           "verdict",    "assumed_shards",
      "single_shard_cost",  "per_shard_cost",
      "fallback_delta"};
  EXPECT_EQ(JsonKeys(*out), expected) << *out;
  // Version 2 dropped the `backend` field with the second SEQ matcher.
  EXPECT_EQ(out->rfind("{\"cost_model_version\":2,", 0), 0u) << *out;
}

TEST_F(ExplainCostSchemaTest, NumbersAreNeverScientific) {
  // FormatCostNumber keeps magnitudes readable: dashboards and the CI
  // schema check parse these as plain decimals.
  const Result<std::string> out = engine_.Explain(
      "EXPLAIN COST SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER "
      "[30 MINUTES PRECEDING R2] AND R1.tagid = R2.tagid;");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->find("e+"), std::string::npos) << *out;
  EXPECT_EQ(out->find("E+"), std::string::npos) << *out;
  EXPECT_EQ(out->find("nan"), std::string::npos) << *out;
  EXPECT_EQ(out->find("inf"), std::string::npos) << *out;
}

TEST_F(ExplainCostSchemaTest, LintJsonThroughEngineKeepsShape) {
  const Result<std::string> out = engine_.Explain(
      "EXPLAIN LINT SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) AND "
      "R1.tagid = R2.tagid;");
  ASSERT_TRUE(out.ok()) << out.status();
  const std::vector<std::string> keys = JsonKeys(*out);
  ASSERT_GE(keys.size(), 10u);
  EXPECT_EQ(keys.front(), "diagnostics");
  // Every diagnostic object repeats the same field sequence.
  const std::vector<std::string> per_diag = {
      "severity", "rule", "message", "line", "column", "offset", "length"};
  for (size_t i = 0; i + per_diag.size() <= 8; ++i) {
    EXPECT_EQ(keys[1 + i], per_diag[i]);
  }
  EXPECT_EQ(keys[keys.size() - 2], "errors");
  EXPECT_EQ(keys.back(), "warnings");
}

}  // namespace
}  // namespace eslev
