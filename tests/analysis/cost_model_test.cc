// Unit tests for the static cost & state-bound analyzer (DESIGN.md §16):
// the symbolic per-operator bounds in analysis/state_bounds.h, the
// EXPLAIN COST surface and the StreamStats calibration hooks.

#include "analysis/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "analysis/state_bounds.h"
#include "cep/seq_config.h"
#include "common/time.h"
#include "core/engine.h"
#include "tests/cep/seq_test_util.h"

namespace eslev {
namespace {

SeqOperatorConfig MakeSeq(size_t n, PairingMode mode) {
  SeqOperatorConfig cfg;
  for (size_t i = 0; i < n; ++i) {
    SeqPosition pos;
    pos.alias = "P" + std::to_string(i + 1);
    cfg.positions.push_back(std::move(pos));
  }
  cfg.mode = mode;
  return cfg;
}

// ---------------------------------------------------------------------------
// SeqStateBound
// ---------------------------------------------------------------------------

TEST(SeqStateBoundTest, PrecedingWindowAnchoredLastBoundsStoredPositions) {
  SeqOperatorConfig cfg = MakeSeq(2, PairingMode::kUnrestricted);
  cfg.window = SeqWindow{Seconds(10), WindowDirection::kPreceding, 1};
  const StateBound b = SeqStateBound(cfg, {5, 7});
  EXPECT_TRUE(b.bounded);
  // Only position 0 is stored (the final position triggers matching);
  // window eviction keeps at most rate*W plus the boundary entry.
  EXPECT_DOUBLE_EQ(b.tuples, 5 * 10 + 1);
  EXPECT_NE(b.formula.find("[window]"), std::string::npos) << b.formula;
}

TEST(SeqStateBoundTest, UnrestrictedWithoutWindowIsUnbounded) {
  const SeqOperatorConfig cfg = MakeSeq(2, PairingMode::kUnrestricted);
  const StateBound b = SeqStateBound(cfg, {5, 7});
  EXPECT_FALSE(b.bounded);
  EXPECT_DOUBLE_EQ(b.growth_per_sec, 5);
  EXPECT_NE(b.formula.find("no purge license"), std::string::npos);
}

TEST(SeqStateBoundTest, FollowingWindowGrantsNoPurgeLicense) {
  // EvictByWindow only fires for PRECEDING / PRECEDING AND FOLLOWING
  // anchored at the last position.
  SeqOperatorConfig cfg = MakeSeq(2, PairingMode::kUnrestricted);
  cfg.window = SeqWindow{Seconds(10), WindowDirection::kFollowing, 0};
  const StateBound b = SeqStateBound(cfg, {5, 7});
  EXPECT_FALSE(b.bounded);
}

TEST(SeqStateBoundTest, ConsecutiveKeepsOneEntryPerStoredPosition) {
  const SeqOperatorConfig cfg = MakeSeq(3, PairingMode::kConsecutive);
  const StateBound b = SeqStateBound(cfg, {100, 100, 100});
  EXPECT_TRUE(b.bounded);
  EXPECT_DOUBLE_EQ(b.tuples, 2);  // positions 0 and 1; final not stored
}

TEST(SeqStateBoundTest, RecentExactPurgeKeepsTriangularHistory) {
  // RECENT with no pairwise constraints purges superseded entries:
  // position i keeps at most n-1-i.
  const SeqOperatorConfig cfg = MakeSeq(3, PairingMode::kRecent);
  const StateBound b = SeqStateBound(cfg, {100, 100, 100});
  EXPECT_TRUE(b.bounded);
  EXPECT_DOUBLE_EQ(b.tuples, 2 + 1);
  EXPECT_NE(b.formula.find("recent purge"), std::string::npos);
}

TEST(SeqStateBoundTest, RecentWithPairwiseNeedsWindow) {
  SeqOperatorConfig cfg = MakeSeq(3, PairingMode::kRecent);
  cfg.pairwise.resize(1);  // disables the exact purge
  const StateBound unwindowed = SeqStateBound(cfg, {100, 100, 100});
  EXPECT_FALSE(unwindowed.bounded);
  cfg.window = SeqWindow{Seconds(2), WindowDirection::kPreceding, 2};
  const StateBound windowed = SeqStateBound(cfg, {100, 100, 100});
  EXPECT_TRUE(windowed.bounded);
  EXPECT_DOUBLE_EQ(windowed.tuples, 2 * (100 * 2 + 1));
}

TEST(SeqStateBoundTest, RecentNegationEvidenceIsNeverPurged) {
  SeqOperatorConfig cfg = MakeSeq(3, PairingMode::kRecent);
  cfg.positions[1].negated = true;
  const StateBound b = SeqStateBound(cfg, {100, 50, 100});
  EXPECT_FALSE(b.bounded);
  EXPECT_DOUBLE_EQ(b.growth_per_sec, 50);
  EXPECT_NE(b.formula.find("negation evidence"), std::string::npos);
}

TEST(SeqStateBoundTest, OpenStarGroupIsUnboundedEvenWithWindow) {
  // EvictByWindow skips open star entries, so no window bounds them.
  SeqOperatorConfig cfg = MakeSeq(2, PairingMode::kChronicle);
  cfg.positions[0].star = true;
  cfg.window = SeqWindow{Seconds(10), WindowDirection::kPreceding, 1};
  const StateBound b = SeqStateBound(cfg, {5, 7});
  EXPECT_FALSE(b.bounded);
  EXPECT_NE(b.formula.find("open star group"), std::string::npos);
}

TEST(SeqStateBoundTest, TrailingStarIsStored) {
  SeqOperatorConfig cfg = MakeSeq(2, PairingMode::kRecent);
  cfg.positions[1].star = true;
  const StateBound b = SeqStateBound(cfg, {5, 7});
  EXPECT_FALSE(b.bounded);
  EXPECT_DOUBLE_EQ(b.growth_per_sec, 7);
}

TEST(SeqStateBoundTest, RecentWindowAnchoredMidIsUnbounded) {
  // SEQ(A, B, C) OVER [10 SECONDS PRECEDING B] MODE RECENT: the anchor B
  // can still be an old entry, so RECENT does not purge and the window
  // evicts nothing. Both stored positions grow.
  SeqOperatorConfig cfg = MakeSeq(3, PairingMode::kRecent);
  cfg.window = SeqWindow{Seconds(10), WindowDirection::kPreceding, 1};
  const StateBound b = SeqStateBound(cfg, {5, 7, 9});
  EXPECT_FALSE(b.bounded) << b.formula;
  EXPECT_DOUBLE_EQ(b.growth_per_sec, 5 + 7);
  EXPECT_EQ(b.formula.find("recent purge"), std::string::npos) << b.formula;
}

TEST(SeqStateBoundTest, RecentNegationBeforeStoredPositionGrowsEveryPosition) {
  // SEQ(A, !B, C, D) MODE RECENT: the negation's later neighbour C is
  // stored, so RECENT does not purge; A and C grow along with B's
  // evidence.
  SeqOperatorConfig cfg = MakeSeq(4, PairingMode::kRecent);
  cfg.positions[1].negated = true;
  const StateBound b = SeqStateBound(cfg, {100, 50, 20, 100});
  EXPECT_FALSE(b.bounded);
  EXPECT_DOUBLE_EQ(b.growth_per_sec, 100 + 50 + 20);
  EXPECT_NE(b.formula.find("negation evidence"), std::string::npos);
  EXPECT_NE(b.formula.find("no purge license"), std::string::npos);
}

struct BoundShape {
  const char* name;
  std::vector<std::string> aliases;
  PairingMode mode;
  std::optional<SeqWindow> window;
  int negated = -1;
  bool pairwise = false;
  bool bounded;  // what the analyzer must claim
};

// Drives the matcher with one reading per position per second, in a
// shuffled order within each second, and checks the analyzer against the
// history it retains: a bounded claim must hold after every arrival, and
// a shape declared unbounded must actually grow.
TEST(SeqStateBoundTest, ClaimsAgreeWithTheMatchersRetainedHistory) {
  const SeqWindow preceding_last{Seconds(10), WindowDirection::kPreceding, 2};
  const SeqWindow preceding_mid{Seconds(10), WindowDirection::kPreceding, 1};
  const SeqWindow following_first{Seconds(10), WindowDirection::kFollowing,
                                  0};
  const std::vector<BoundShape> shapes = {
      {"recent", {"A", "B", "C"}, PairingMode::kRecent, {}, -1, false, true},
      {"recent_preceding_last", {"A", "B", "C"}, PairingMode::kRecent,
       preceding_last, -1, false, true},
      {"recent_following_first", {"A", "B", "C"}, PairingMode::kRecent,
       following_first, -1, false, true},
      {"recent_pairwise_preceding_last", {"A", "B", "C"},
       PairingMode::kRecent, preceding_last, -1, true, true},
      {"recent_preceding_mid", {"A", "B", "C"}, PairingMode::kRecent,
       preceding_mid, -1, false, false},
      {"recent_negation_before_stored", {"A", "B", "C", "D"},
       PairingMode::kRecent, {}, 1, false, false},
      {"recent_pairwise", {"A", "B", "C"}, PairingMode::kRecent, {}, -1, true,
       false},
      {"unrestricted_preceding_last", {"A", "B", "C"},
       PairingMode::kUnrestricted, preceding_last, -1, false, true},
      {"unrestricted_preceding_mid", {"A", "B", "C"},
       PairingMode::kUnrestricted, preceding_mid, -1, false, false},
      {"chronicle_preceding_last", {"A", "B", "C"}, PairingMode::kChronicle,
       preceding_last, -1, false, true},
      {"consecutive", {"A", "B", "C"}, PairingMode::kConsecutive, {}, -1,
       false, true},
  };
  constexpr int kSeconds = 120;
  for (const BoundShape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    cep_test::SeqBuilder builder(shape.aliases);
    builder.Mode(shape.mode);
    if (shape.window) {
      builder.Window(shape.window->length, shape.window->direction,
                     shape.window->anchor);
    }
    if (shape.negated >= 0) builder.Negated(static_cast<size_t>(shape.negated));
    // Every reading carries the same tag, so the conjunct never rejects
    // a combination; it only takes RECENT out of its purge license.
    if (shape.pairwise) builder.Pairwise(0, 1, "A.tagid = B.tagid");
    const size_t n = shape.aliases.size();
    // One tuple per position per second.
    const StateBound bound =
        SeqStateBound(builder.Config(), std::vector<double>(n, 1.0));
    ASSERT_EQ(bound.bounded, shape.bounded) << bound.formula;
    auto op = builder.Build();
    CollectOperator out;
    op->AddSink(&out);
    std::mt19937 rng(7);
    std::vector<size_t> order(n);
    size_t peak = 0;
    for (int sec = 0; sec < kSeconds; ++sec) {
      for (size_t i = 0; i < n; ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng);
      for (size_t i = 0; i < n; ++i) {
        const Timestamp ts =
            Seconds(sec) + Milliseconds(static_cast<int64_t>(i));
        ASSERT_TRUE(
            op->OnTuple(order[i],
                        cep_test::Reading(builder.schema(), "r", "x", ts))
                .ok());
        peak = std::max(peak, op->history_size());
        if (bound.bounded) {
          ASSERT_LE(static_cast<double>(op->history_size()), bound.tuples)
              << bound.formula << " after second " << sec;
        }
      }
    }
    if (!shape.bounded) {
      // At least one stored entry per second survives.
      EXPECT_GE(peak, static_cast<size_t>(kSeconds)) << bound.formula;
    }
  }
}

// ---------------------------------------------------------------------------
// Other operator bounds
// ---------------------------------------------------------------------------

TEST(StateBoundTest, ExceptionSeqTracksOnePartialRun) {
  ExceptionSeqConfig cfg;
  cfg.positions.resize(3);
  for (size_t i = 0; i < 3; ++i) cfg.positions[i].alias = "A";
  const StateBound b = ExceptionSeqStateBound(cfg, {100, 100, 100});
  EXPECT_TRUE(b.bounded);
  EXPECT_DOUBLE_EQ(b.tuples, 3);
}

TEST(StateBoundTest, ExceptionSeqWindowedStarIsBounded) {
  ExceptionSeqConfig cfg;
  cfg.positions.resize(3);
  cfg.positions[1].star = true;
  cfg.window = SeqWindow{Seconds(4), WindowDirection::kFollowing, 0};
  const StateBound b = ExceptionSeqStateBound(cfg, {10, 20, 10});
  EXPECT_TRUE(b.bounded);
  EXPECT_DOUBLE_EQ(b.tuples, 3 + (20 * 4 + 1));
}

TEST(StateBoundTest, WindowedNotExistsPrecedingBuffersOnly) {
  WindowSpec w;
  w.row_based = false;
  w.length = Seconds(3);
  w.direction = WindowDirection::kPreceding;
  const StateBound b = WindowedNotExistsStateBound(w, 50, 50);
  EXPECT_TRUE(b.bounded);
  EXPECT_DOUBLE_EQ(b.tuples, 50 * 3 + 1);
}

TEST(StateBoundTest, WindowedNotExistsFollowingAddsPendingSet) {
  WindowSpec w;
  w.row_based = false;
  w.length = Seconds(3);
  w.direction = WindowDirection::kPrecedingAndFollowing;
  const StateBound b = WindowedNotExistsStateBound(w, 50, 40);
  EXPECT_TRUE(b.bounded);
  EXPECT_DOUBLE_EQ(b.tuples, (50 * 3 + 1) + (40 * 3 + 1));
}

TEST(StateBoundTest, AggregateGroupsScaleWithKeyPower) {
  const StateBound global = AggregateStateBound(0, 1024, std::nullopt, 100);
  EXPECT_DOUBLE_EQ(global.tuples, 1);
  const StateBound keyed = AggregateStateBound(2, 10, std::nullopt, 100);
  EXPECT_DOUBLE_EQ(keyed.tuples, 100);
  WindowSpec w;
  w.row_based = true;
  w.length = 5;
  const StateBound windowed = AggregateStateBound(1, 10, w, 100);
  EXPECT_DOUBLE_EQ(windowed.tuples, 10 + 5);
}

TEST(StateBoundTest, FormatCostNumberAvoidsScientificNotation) {
  EXPECT_EQ(FormatCostNumber(1000), "1000");
  EXPECT_EQ(FormatCostNumber(0.5), "0.50");
  EXPECT_EQ(FormatCostNumber(5400003), "5400003");
  EXPECT_EQ(FormatCostNumber(1e15), "1000000000000000");
}

// ---------------------------------------------------------------------------
// CostAnalyzer through the Engine surface
// ---------------------------------------------------------------------------

class CostModelEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Status status = engine_.ExecuteScript(R"sql(
      CREATE STREAM R1(readerid, tagid, tagtime);
      CREATE STREAM R2(readerid, tagid, tagtime);
      CREATE TABLE history(tagid, location, start_time);
    )sql");
    ASSERT_TRUE(status.ok()) << status;
  }

  QueryCostReport Analyze(const std::string& sql) {
    Result<std::vector<QueryCostReport>> r = engine_.AnalyzeCost(sql);
    EXPECT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->size(), 1u);
    return r->empty() ? QueryCostReport{} : (*r)[0];
  }

  Engine engine_;
};

TEST_F(CostModelEngineTest, DefaultsDriveTheEstimate) {
  const QueryCostReport report = Analyze(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "PRECEDING R2] AND R1.tagid = R2.tagid;");
  ASSERT_EQ(report.operators.size(), 1u);
  const OperatorCost& seq = report.operators[0];
  EXPECT_EQ(seq.op, "SeqOperator");
  EXPECT_TRUE(seq.state.bounded);
  // Default rate 1000/s: position R1 retains 1000*5+1.
  EXPECT_DOUBLE_EQ(seq.state.tuples, 5001);
  EXPECT_EQ(seq.state_gauges, std::vector<std::string>{"retained_history"});
  EXPECT_EQ(report.partitioning, "partitionable");
  EXPECT_DOUBLE_EQ(report.single_shard_cost, report.total_cpu_cost);
  EXPECT_DOUBLE_EQ(report.per_shard_cost, report.total_cpu_cost / 4);
  EXPECT_DOUBLE_EQ(report.fallback_delta,
                   report.single_shard_cost - report.per_shard_cost);
}

TEST_F(CostModelEngineTest, DeclaredStreamStatsOverrideDefaults) {
  StreamStats stats;
  stats.rate_per_sec = 10;
  stats.distinct_keys = 4;
  ASSERT_TRUE(engine_.DeclareStreamStats("R1", stats).ok());
  ASSERT_TRUE(engine_.DeclareStreamStats("R2", stats).ok());
  const QueryCostReport report = Analyze(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "PRECEDING R2] AND R1.tagid = R2.tagid;");
  ASSERT_EQ(report.operators.size(), 1u);
  EXPECT_DOUBLE_EQ(report.operators[0].state.tuples, 10 * 5 + 1);
}

TEST_F(CostModelEngineTest, KeyedNotExistsProbeDividesByDistinctKeys) {
  StreamStats stats;
  stats.rate_per_sec = 100;
  stats.distinct_keys = 50;
  ASSERT_TRUE(engine_.DeclareStreamStats("R1", stats).ok());
  const auto anti_join_cost = [&](const std::string& where) {
    const QueryCostReport report = Analyze(
        "SELECT * FROM R1 AS a WHERE NOT EXISTS (SELECT * FROM R1 AS b "
        "OVER [1 SECONDS PRECEDING] WHERE " +
        where + ");");
    for (const OperatorCost& row : report.operators) {
      if (row.op == "WindowedNotExists") return row;
    }
    ADD_FAILURE() << "no WindowedNotExists row";
    return OperatorCost{};
  };
  // Buffer r*W+1 = 101 tuples; a keyed probe covers 101 / 50 of them.
  const OperatorCost keyed = anti_join_cost("b.tagid = a.tagid");
  EXPECT_DOUBLE_EQ(keyed.state.tuples, 101);
  EXPECT_DOUBLE_EQ(keyed.cpu_cost, 100 + 100 * 101 / 50.0);
  const OperatorCost scan = anti_join_cost("b.tagid = a.tagid OR 1 = 0");
  EXPECT_DOUBLE_EQ(scan.cpu_cost, 100 + 100 * 101);
}

TEST_F(CostModelEngineTest, DeclareStreamStatsRejectsUnknownStream) {
  EXPECT_FALSE(engine_.DeclareStreamStats("nosuch", StreamStats{}).ok());
}

TEST_F(CostModelEngineTest, UnboundedQueryReportsGrowth) {
  const QueryCostReport report = Analyze(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) AND R1.tagid = "
      "R2.tagid;");
  EXPECT_FALSE(report.state_bounded);
  EXPECT_DOUBLE_EQ(report.total_state_growth_per_sec, 1000);
}

TEST_F(CostModelEngineTest, NonKeyLinkedSeqIsSingleShard) {
  const QueryCostReport report = Analyze(
      "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "PRECEDING R2];");
  EXPECT_EQ(report.partitioning, "single-shard");
}

TEST_F(CostModelEngineTest, AnalyzeCostSkipsDdlStatements) {
  const Result<std::vector<QueryCostReport>> r = engine_.AnalyzeCost(R"sql(
    CREATE STREAM R9(readerid, tagid, tagtime);
    SELECT * FROM R1 WHERE R1.tagid = 'x';
    SELECT * FROM R2 WHERE R2.tagid = 'y';
  )sql");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 2u);
}

TEST_F(CostModelEngineTest, ExplainCostReturnsJson) {
  const Result<std::string> out = engine_.Explain(
      "EXPLAIN COST SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 "
      "SECONDS PRECEDING R2] AND R1.tagid = R2.tagid;");
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_NE(out->find("\"cost_model_version\":2"), std::string::npos) << *out;
  EXPECT_NE(out->find("\"op\":\"SeqOperator\""), std::string::npos);
  EXPECT_NE(out->find("\"verdict\":\"partitionable\""), std::string::npos);
}

TEST_F(CostModelEngineTest, InsertIntoTableReportsUnboundedGrowth) {
  const QueryCostReport report =
      Analyze("INSERT INTO history SELECT tagid, readerid, tagtime FROM R1;");
  EXPECT_FALSE(report.state_bounded);
  bool saw_insert = false;
  for (const OperatorCost& row : report.operators) {
    if (row.op == "TableInsert") {
      saw_insert = true;
      EXPECT_FALSE(row.state.bounded);
    }
  }
  EXPECT_TRUE(saw_insert);
}

}  // namespace
}  // namespace eslev
