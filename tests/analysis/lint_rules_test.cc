// Golden tests for the EXPLAIN LINT rule catalog: each known-bad
// fixture must produce the expected rule id at the exact source span
// (DESIGN.md §11).

#include "analysis/analyzer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"

namespace eslev {
namespace {

class LintRulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Status status = engine_.ExecuteScript(R"sql(
      CREATE STREAM R1(readerid, tagid, tagtime);
      CREATE STREAM R2(readerid, tagid, tagtime);
      CREATE STREAM R3(readerid, tagid, tagtime);
      CREATE TABLE history(tagid, location, start_time);
    )sql");
    ASSERT_TRUE(status.ok()) << status;
  }

  std::vector<Diagnostic> Lint(const std::string& sql) {
    Result<std::vector<Diagnostic>> r = engine_.Lint(sql);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? *r : std::vector<Diagnostic>{};
  }

  static const Diagnostic* Find(const std::vector<Diagnostic>& diags,
                                const std::string& rule) {
    for (const Diagnostic& d : diags) {
      if (d.rule == rule) return &d;
    }
    return nullptr;
  }

  static size_t CountRule(const std::vector<Diagnostic>& diags,
                          const std::string& rule) {
    size_t n = 0;
    for (const Diagnostic& d : diags) {
      if (d.rule == rule) ++n;
    }
    return n;
  }

  static void ExpectSpan(const Diagnostic& d, int line, int column,
                         size_t length) {
    EXPECT_EQ(d.span.line, line) << d.ToString();
    EXPECT_EQ(d.span.column, column) << d.ToString();
    EXPECT_EQ(d.span.length, length) << d.ToString();
  }

  Engine engine_;
};

// ---------------------------------------------------------------------------
// unbounded-retention
// ---------------------------------------------------------------------------

TEST_F(LintRulesTest, UnrestrictedSeqWithoutWindowIsError) {
  const auto diags = Lint(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) AND R1.tagid = "
      "R2.tagid;");
  const Diagnostic* d = Find(diags, "unbounded-retention");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  ExpectSpan(*d, 1, 35, 11);  // SEQ(R1, R2)
  EXPECT_FALSE(d->hint.empty());
}

TEST_F(LintRulesTest, SpansTrackLines) {
  const auto diags = Lint(
      "SELECT R1.tagid FROM R1, R2\n"
      "WHERE SEQ(R1, R2) AND R1.tagid = R2.tagid;");
  const Diagnostic* d = Find(diags, "unbounded-retention");
  ASSERT_NE(d, nullptr);
  ExpectSpan(*d, 2, 7, 11);
}

TEST_F(LintRulesTest, ChronicleWithoutWindowWarnsOnSeqAndStarBuffer) {
  const auto diags = Lint(
      "SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1*, R2) MODE CHRONICLE AND "
      "R1.tagid = R2.tagid;");
  ASSERT_EQ(CountRule(diags, "unbounded-retention"), 2u);
  EXPECT_EQ(diags[0].rule, "unbounded-retention");
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  ExpectSpan(diags[0], 1, 35, 27);  // SEQ(R1*, R2) MODE CHRONICLE
  EXPECT_EQ(diags[1].severity, Severity::kWarning);
  ExpectSpan(diags[1], 1, 39, 3);  // R1*
}

TEST_F(LintRulesTest, RecentModeWithoutWindowIsClean) {
  // Under its purge rule RECENT keeps only what its newest-first search
  // can still pick: candidates qualify by time order alone.
  const auto diags = Lint(
      "SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1, R2) MODE RECENT;");
  EXPECT_EQ(Find(diags, "unbounded-retention"), nullptr);
}

TEST_F(LintRulesTest, RecentWithPairwiseConditionWithoutWindowIsError) {
  // A pairwise conjunct takes RECENT out of its purge rule, so it purges
  // nothing and retains as UNRESTRICTED does.
  const auto diags = Lint(
      "SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1, R2) MODE RECENT AND "
      "R1.tagid = R2.tagid;");
  const Diagnostic* d = Find(diags, "unbounded-retention");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  ExpectSpan(*d, 1, 35, 23);  // SEQ(R1, R2) MODE RECENT
  EXPECT_NE(d->message.find("RECENT"), std::string::npos) << d->ToString();
  EXPECT_NE(d->message.find("estimated growth"), std::string::npos)
      << d->ToString();
}

TEST_F(LintRulesTest, RecentWithNegationBeforeStoredPositionIsError) {
  // !R2's later neighbour R3 is stored (not the trigger), so RECENT's
  // purge rule does not apply even without pairwise conditions.
  ASSERT_TRUE(
      engine_.ExecuteScript("CREATE STREAM R4(readerid, tagid, tagtime);")
          .ok());
  const auto diags = Lint(
      "SELECT R4.tagid FROM R1, R2, R3, R4 WHERE SEQ(R1, !R2, R3, R4) "
      "MODE RECENT;");
  const Diagnostic* d = Find(diags, "unbounded-retention");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST_F(LintRulesTest, WindowedSeqIsClean) {
  const auto diags = Lint(
      "SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "PRECEDING R2] AND R1.tagid = R2.tagid;");
  EXPECT_EQ(Find(diags, "unbounded-retention"), nullptr);
}

TEST_F(LintRulesTest, UnrestrictedSeqUnderNonEvictingWindowIsError) {
  // A FOLLOWING window checks a match but never evicts history: the
  // matcher evicts only by a PRECEDING side anchored at the last position.
  const auto diags = Lint(
      "SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "FOLLOWING R1] AND R1.tagid = R2.tagid;");
  const Diagnostic* d = Find(diags, "unbounded-retention");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  ExpectSpan(*d, 1, 35, 41);  // SEQ(R1, R2) OVER [5 SECONDS FOLLOWING R1]
  EXPECT_NE(d->message.find("never evicts"), std::string::npos)
      << d->ToString();
}

TEST_F(LintRulesTest, ChronicleUnderWindowAnchoredBeforeLastPositionWarns) {
  const auto diags = Lint(
      "SELECT R3.tagid FROM R1, R2, R3 WHERE SEQ(R1, R2, R3) OVER "
      "[5 SECONDS PRECEDING R2] MODE CHRONICLE AND R1.tagid = R2.tagid AND "
      "R2.tagid = R3.tagid;");
  const Diagnostic* d = Find(diags, "unbounded-retention");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("CHRONICLE"), std::string::npos)
      << d->ToString();
}

TEST_F(LintRulesTest, ChronicleStarUnderEvictingWindowWarnsAtTheStar) {
  // The window evicts closed history, but no window evicts an open star
  // group, so the state bound is unbounded at R1*.
  const auto diags = Lint(
      "SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1*, R2) OVER [5 SECONDS "
      "PRECEDING R2] MODE CHRONICLE AND R1.tagid = R2.tagid;");
  ASSERT_EQ(CountRule(diags, "unbounded-retention"), 2u);
  EXPECT_EQ(diags[0].rule, "unbounded-retention");
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  ExpectSpan(diags[0], 1, 35, 57);  // SEQ(R1*, R2) OVER [...] MODE CHRONICLE
  EXPECT_EQ(diags[1].rule, "unbounded-retention");
  EXPECT_EQ(diags[1].severity, Severity::kWarning);
  ExpectSpan(diags[1], 1, 39, 3);  // R1*
  EXPECT_NE(diags[1].message.find("open star group"), std::string::npos)
      << diags[1].ToString();
}

// ---------------------------------------------------------------------------
// unsatisfiable-window
// ---------------------------------------------------------------------------

TEST_F(LintRulesTest, ZeroLengthSeqWindowIsError) {
  const auto diags = Lint(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [0 SECONDS "
      "PRECEDING R2] AND R1.tagid = R2.tagid;");
  const Diagnostic* d = Find(diags, "unsatisfiable-window");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  ExpectSpan(*d, 1, 47, 29);  // OVER [0 SECONDS PRECEDING R2]
}

TEST_F(LintRulesTest, UnknownWindowAnchorIsError) {
  const auto diags = Lint(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "PRECEDING R9] AND R1.tagid = R2.tagid;");
  const Diagnostic* d = Find(diags, "unsatisfiable-window");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("R9"), std::string::npos);
}

TEST_F(LintRulesTest, VacuousPrecedingAnchorIsWarning) {
  const auto diags = Lint(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "PRECEDING R1] AND R1.tagid = R2.tagid;");
  const Diagnostic* d = Find(diags, "unsatisfiable-window");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  ExpectSpan(*d, 1, 47, 29);
}

TEST_F(LintRulesTest, VacuousFollowingAnchorIsWarning) {
  const auto diags = Lint(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "FOLLOWING R2] AND R1.tagid = R2.tagid;");
  const Diagnostic* d = Find(diags, "unsatisfiable-window");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST_F(LintRulesTest, AnchoredWindowIsClean) {
  const auto diags = Lint(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "FOLLOWING R1] AND R1.tagid = R2.tagid;");
  EXPECT_EQ(Find(diags, "unsatisfiable-window"), nullptr);
}

TEST_F(LintRulesTest, ZeroLengthFromWindowIsWarning) {
  const auto diags = Lint(
      "SELECT * FROM R1 AS a WHERE NOT EXISTS (SELECT * FROM R1 AS b OVER "
      "[0 SECONDS PRECEDING AND FOLLOWING a] WHERE b.tagid = a.tagid);");
  const Diagnostic* d = Find(diags, "unsatisfiable-window");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

// ---------------------------------------------------------------------------
// star-aggregate-misuse
// ---------------------------------------------------------------------------

TEST_F(LintRulesTest, StarAggregateOnNonStarArgumentIsError) {
  const auto diags = Lint(
      "SELECT COUNT(R1*), R2.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 "
      "SECONDS PRECEDING R2] AND R1.tagid = R2.tagid;");
  const Diagnostic* d = Find(diags, "star-aggregate-misuse");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  ExpectSpan(*d, 1, 8, 10);  // COUNT(R1*)
  EXPECT_NE(d->hint.find("R1*"), std::string::npos);
}

TEST_F(LintRulesTest, StarAggregateWithoutSeqIsError) {
  const auto diags = Lint("SELECT COUNT(R1*) FROM R1;");
  const Diagnostic* d = Find(diags, "star-aggregate-misuse");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("no SEQ"), std::string::npos);
}

TEST_F(LintRulesTest, PreviousOnNonStarArgumentIsError) {
  const auto diags = Lint(
      "SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "PRECEDING R2] AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS AND "
      "R1.tagid = R2.tagid;");
  const Diagnostic* d = Find(diags, "star-aggregate-misuse");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("previous"), std::string::npos);
}

TEST_F(LintRulesTest, StarAggregateOnStarArgumentIsClean) {
  const auto diags = Lint(
      "SELECT COUNT(R1*), R2.tagid FROM R1, R2 WHERE SEQ(R1*, R2) MODE "
      "RECENT AND R1.tagid = R2.tagid;");
  EXPECT_EQ(Find(diags, "star-aggregate-misuse"), nullptr);
}

// ---------------------------------------------------------------------------
// dead-predicate
// ---------------------------------------------------------------------------

TEST_F(LintRulesTest, ConstantFalseConjunctIsError) {
  const auto diags = Lint("SELECT * FROM R1 WHERE 1 = 2;");
  const Diagnostic* d = Find(diags, "dead-predicate");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  ExpectSpan(*d, 1, 24, 5);  // 1 = 2
}

TEST_F(LintRulesTest, ConstantNullConjunctIsError) {
  const auto diags = Lint("SELECT * FROM R1 WHERE NULL;");
  const Diagnostic* d = Find(diags, "dead-predicate");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST_F(LintRulesTest, ConstantTypeErrorConjunctIsError) {
  const auto diags = Lint("SELECT * FROM R1 WHERE 'abc' > 5;");
  const Diagnostic* d = Find(diags, "dead-predicate");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("type error"), std::string::npos);
}

TEST_F(LintRulesTest, TypeIncoherentComparisonIsWarning) {
  // tagid is VARCHAR (untyped DDL column); comparing it to an integer
  // raises a runtime type error on every tuple.
  const auto diags = Lint("SELECT * FROM R1 WHERE R1.tagid > 5;");
  const Diagnostic* d = Find(diags, "dead-predicate");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  ExpectSpan(*d, 1, 24, 12);  // R1.tagid > 5
}

TEST_F(LintRulesTest, CoherentPredicatesAreClean) {
  const auto diags = Lint(
      "SELECT * FROM R1 WHERE R1.tagid = 'x' AND 1 = 1 AND R1.tagtime > 5;");
  EXPECT_EQ(Find(diags, "dead-predicate"), nullptr);
}

// ---------------------------------------------------------------------------
// shard-fallback
// ---------------------------------------------------------------------------

TEST_F(LintRulesTest, SeqWithoutKeyJoinWarns) {
  const auto diags = Lint(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "PRECEDING R2];");
  const Diagnostic* d = Find(diags, "shard-fallback");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  ExpectSpan(*d, 1, 35, 41);  // the whole SEQ(...) OVER [...] construct
}

TEST_F(LintRulesTest, SeqJoinedOnPartitionKeyIsClean) {
  const auto diags = Lint(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "PRECEDING R2] AND R1.tagid = R2.tagid;");
  EXPECT_EQ(Find(diags, "shard-fallback"), nullptr);
}

TEST_F(LintRulesTest, SeqKeyLinkThroughThirdPositionIsClean) {
  // R1-R3 and R2-R3 links connect all three positions transitively.
  const auto diags = Lint(
      "SELECT R1.tagid FROM R1, R2, R3 WHERE SEQ(R1, R2, R3) OVER [5 "
      "SECONDS PRECEDING R3] AND R1.tagid = R3.tagid AND R2.tagid = "
      "R3.tagid;");
  EXPECT_EQ(Find(diags, "shard-fallback"), nullptr);
}

TEST_F(LintRulesTest, UncorrelatedExistsOverStreamWarns) {
  const auto diags = Lint(
      "SELECT * FROM R1 AS a WHERE NOT EXISTS (SELECT * FROM R1 AS b OVER "
      "[1 MINUTES PRECEDING AND FOLLOWING a] WHERE b.readerid = 'door');");
  const Diagnostic* d = Find(diags, "shard-fallback");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST_F(LintRulesTest, KeyCorrelatedExistsIsClean) {
  const auto diags = Lint(
      "SELECT * FROM R1 AS a WHERE NOT EXISTS (SELECT * FROM R1 AS b OVER "
      "[1 MINUTES PRECEDING AND FOLLOWING a] WHERE b.tagid = a.tagid);");
  EXPECT_EQ(Find(diags, "shard-fallback"), nullptr);
}

// ---------------------------------------------------------------------------
// durability-hazard
// ---------------------------------------------------------------------------

TEST_F(LintRulesTest, InsertIntoTableWarns) {
  const auto diags =
      Lint("INSERT INTO history SELECT tagid, readerid, tagtime FROM R1;");
  const Diagnostic* d = Find(diags, "durability-hazard");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->span.line, 1);
  EXPECT_EQ(d->span.column, 1);  // the whole INSERT statement
}

TEST_F(LintRulesTest, InsertIntoStreamIsClean) {
  const auto diags =
      Lint("INSERT INTO R3 SELECT readerid, tagid, tagtime FROM R1;");
  EXPECT_EQ(Find(diags, "durability-hazard"), nullptr);
}

TEST_F(LintRulesTest, UnwindowedGroupByWarns) {
  const auto diags =
      Lint("SELECT readerid, count(tagid) FROM R1 GROUP BY readerid;");
  const Diagnostic* d = Find(diags, "durability-hazard");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST_F(LintRulesTest, WindowedGroupByIsClean) {
  const auto diags = Lint(
      "SELECT readerid, count(tagid) FROM TABLE(R1 OVER (RANGE 60 SECONDS "
      "PRECEDING CURRENT)) AS r GROUP BY readerid;");
  EXPECT_EQ(Find(diags, "durability-hazard"), nullptr);
}

// ---------------------------------------------------------------------------
// seq-negation-coverage
// ---------------------------------------------------------------------------

TEST_F(LintRulesTest, MidSequenceNegationInLongSeqWarns) {
  ASSERT_TRUE(
      engine_.ExecuteScript("CREATE STREAM R4(readerid, tagid, tagtime);")
          .ok());
  const auto diags = Lint(
      "SELECT R4.tagid FROM R1, R2, R3, R4 WHERE SEQ(R1, !R2, R3, R4) OVER "
      "[5 SECONDS PRECEDING R4] AND R1.tagid = R4.tagid AND R3.tagid = "
      "R4.tagid;");
  const Diagnostic* d = Find(diags, "seq-negation-coverage");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  ExpectSpan(*d, 1, 51, 3);  // !R2
  EXPECT_NE(d->message.find("position 2 of 4"), std::string::npos)
      << d->message;
  EXPECT_NE(d->hint.find("NOT EXISTS"), std::string::npos) << d->hint;
}

TEST_F(LintRulesTest, ThreePositionNegationIsClean) {
  const auto diags = Lint(
      "SELECT R3.tagid FROM R1, R2, R3 WHERE SEQ(R1, !R2, R3) OVER [5 "
      "SECONDS PRECEDING R3] AND R1.tagid = R3.tagid;");
  EXPECT_EQ(Find(diags, "seq-negation-coverage"), nullptr);
}

// ---------------------------------------------------------------------------
// quantified messages (cost-model integration)
// ---------------------------------------------------------------------------

TEST_F(LintRulesTest, ShardFallbackWarningQuantifiesTheDelta) {
  const auto diags = Lint(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "PRECEDING R2];");
  const Diagnostic* d = Find(diags, "shard-fallback");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("predicate evals/s on the hot shard"),
            std::string::npos)
      << d->message;
  EXPECT_NE(d->message.find("fallback delta +"), std::string::npos)
      << d->message;
  EXPECT_NE(d->message.find("across 4 shards"), std::string::npos)
      << d->message;
}

TEST_F(LintRulesTest, UnboundedRetentionQuantifiesGrowth) {
  const auto diags = Lint(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) AND R1.tagid = "
      "R2.tagid;");
  const Diagnostic* d = Find(diags, "unbounded-retention");
  ASSERT_NE(d, nullptr);
  // Default declared rate is 1000/s; only the first position is stored.
  EXPECT_NE(d->message.find("estimated growth 1000 tuples/s"),
            std::string::npos)
      << d->message;
}

TEST_F(LintRulesTest, DurabilityHazardQuantifiesTableGrowth) {
  const auto diags =
      Lint("INSERT INTO history SELECT tagid, readerid, tagtime FROM R1;");
  const Diagnostic* d = Find(diags, "durability-hazard");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("rows/s at declared input rates"),
            std::string::npos)
      << d->message;
}

// ---------------------------------------------------------------------------
// disorder-hazard
// ---------------------------------------------------------------------------

constexpr char kDisorderDdl[] = R"sql(
  CREATE STREAM R1(readerid, tagid, tagtime);
  CREATE STREAM R2(readerid, tagid, tagtime);
)sql";

constexpr char kDisorderSeqQuery[] =
    "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER "
    "[30 SECONDS PRECEDING R2] AND R1.tagid = R2.tagid;";

EngineOptions DisorderOptions(Duration declared, Duration lateness) {
  EngineOptions options;
  options.ingest.declared_disorder = declared;
  options.ingest.lateness_bound = lateness;
  return options;
}

std::vector<Diagnostic> LintWith(const EngineOptions& options,
                                 const std::string& sql) {
  Engine engine(options);
  EXPECT_TRUE(engine.ExecuteScript(kDisorderDdl).ok());
  Result<std::vector<Diagnostic>> r = engine.Lint(sql);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? *r : std::vector<Diagnostic>{};
}

const Diagnostic* FindRule(const std::vector<Diagnostic>& diags,
                           const std::string& rule) {
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

TEST(DisorderHazardTest, DeclaredDisorderWithoutReorderWarns) {
  const auto diags =
      LintWith(DisorderOptions(Milliseconds(250), 0), kDisorderSeqQuery);
  const Diagnostic* d = FindRule(diags, "disorder-hazard");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  // Anchored at the SEQ predicate, the construct at risk.
  EXPECT_EQ(d->span.line, 1);
  EXPECT_EQ(d->span.column, 35);
  EXPECT_NE(d->message.find("250000 us"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("no ingest reorder stage"), std::string::npos)
      << d->message;
  // The fix hint names the option that sets the bound.
  EXPECT_NE(d->hint.find("lateness_bound >= 250000"), std::string::npos)
      << d->hint;
  EXPECT_NE(d->hint.find("EngineOptions::ingest.lateness_bound"),
            std::string::npos)
      << d->hint;
}

TEST(DisorderHazardTest, PartialLatenessBoundWarnsWithCoverage) {
  const auto diags = LintWith(
      DisorderOptions(Milliseconds(250), Milliseconds(100)),
      kDisorderSeqQuery);
  const Diagnostic* d = FindRule(diags, "disorder-hazard");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("covers only 100000 us"), std::string::npos)
      << d->message;
}

TEST(DisorderHazardTest, CoveringLatenessBoundIsClean) {
  const auto diags = LintWith(
      DisorderOptions(Milliseconds(250), Milliseconds(250)),
      kDisorderSeqQuery);
  EXPECT_EQ(FindRule(diags, "disorder-hazard"), nullptr);
}

TEST(DisorderHazardTest, NoDeclaredDisorderIsClean) {
  const auto diags = LintWith(DisorderOptions(0, 0), kDisorderSeqQuery);
  EXPECT_EQ(FindRule(diags, "disorder-hazard"), nullptr);
}

TEST(DisorderHazardTest, NonSeqQueryIsClean) {
  const auto diags = LintWith(DisorderOptions(Milliseconds(250), 0),
                              "SELECT * FROM R1 WHERE R1.tagid = 'x';");
  EXPECT_EQ(FindRule(diags, "disorder-hazard"), nullptr);
}

// ---------------------------------------------------------------------------
// plan-error
// ---------------------------------------------------------------------------

TEST_F(LintRulesTest, PlannerRejectionSurfacesAsDiagnostic) {
  const auto diags = Lint("SELECT nosuch.tagid FROM R1 AS a;");
  const Diagnostic* d = Find(diags, "plan-error");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_FALSE(d->message.empty());
}

// ---------------------------------------------------------------------------
// Engine surface
// ---------------------------------------------------------------------------

TEST_F(LintRulesTest, ExplainLintReturnsJson) {
  const Result<std::string> out = engine_.Explain(
      "EXPLAIN LINT SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) AND "
      "R1.tagid = R2.tagid;");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("\"rule\":\"unbounded-retention\""), std::string::npos)
      << *out;
  EXPECT_NE(out->find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(out->find("\"errors\":1"), std::string::npos);
  EXPECT_NE(out->find("\"line\":1"), std::string::npos);
}

TEST_F(LintRulesTest, ExplainLintOnCleanQueryReportsZeroErrors) {
  const Result<std::string> out =
      engine_.Explain("EXPLAIN LINT SELECT * FROM R1 WHERE R1.tagid = 'x';");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("\"diagnostics\":[]"), std::string::npos) << *out;
  EXPECT_NE(out->find("\"errors\":0"), std::string::npos);
}

TEST_F(LintRulesTest, PlainExplainStillDescribesPlan) {
  const Result<std::string> out =
      engine_.Explain("EXPLAIN SELECT * FROM R1 WHERE R1.tagid = 'x';");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("Output:"), std::string::npos);
}

TEST_F(LintRulesTest, LintNeverRegistersQueries) {
  ASSERT_TRUE(engine_.Lint("SELECT * FROM R1 WHERE R1.tagid = 'x';").ok());
  // A second lint of the same bare SELECT must not collide with a
  // registered `_q<id>` output stream, and Metrics sees no new queries.
  ASSERT_TRUE(engine_.Lint("SELECT * FROM R1 WHERE R1.tagid = 'x';").ok());
  EXPECT_EQ(engine_.FindStream("_q1"), nullptr);
}

TEST_F(LintRulesTest, DiagnosticsToJsonEscapes) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.rule = "test-rule";
  d.message = "quote \" backslash \\ newline \n done";
  const std::string json = DiagnosticsToJson({d});
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n done"),
            std::string::npos)
      << json;
}

TEST_F(LintRulesTest, DiagnosticOrderingFollowsSourcePosition) {
  const auto diags = Lint(
      "SELECT COUNT(R1*), R2.tagid FROM R1, R2 WHERE SEQ(R1, R2) AND 1 = "
      "2;");
  ASSERT_GE(diags.size(), 3u);
  for (size_t i = 1; i < diags.size(); ++i) {
    EXPECT_LE(diags[i - 1].span.offset, diags[i].span.offset);
  }
}

}  // namespace
}  // namespace eslev
