// SEQ operator: windows, qualifying (pairwise) conditions, purging
// behavior, arrival filters, and configuration validation.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "recovery/codec.h"
#include "tests/cep/seq_test_util.h"

namespace eslev {
namespace {

using cep_test::Reading;
using cep_test::SeqBuilder;

// ---------------------------------------------------------------------------
// Example 6 with the tagid join conditions
// ---------------------------------------------------------------------------

TEST(SeqQualifyTest, TagidJoinPrunesMixedProducts) {
  // Two products interleave through the four checking steps; only
  // same-tag sequences should be reported.
  SeqBuilder b({"C1", "C2", "C3", "C4"});
  b.Mode(PairingMode::kUnrestricted)
      .Pairwise(0, 3, "C1.tagid = C4.tagid")
      .Pairwise(1, 3, "C2.tagid = C4.tagid")
      .Pairwise(2, 3, "C3.tagid = C4.tagid")
      .Project({"C1.tagid", "C1.tagtime", "C4.tagtime"},
               {{"tag", TypeId::kString},
                {"start", TypeId::kTimestamp},
                {"finish", TypeId::kTimestamp}});
  auto op = b.Build();
  CollectOperator out;
  op->AddSink(&out);

  auto push = [&](size_t port, const std::string& tag, Timestamp t) {
    ASSERT_TRUE(op->OnTuple(port, Reading(b.schema(), "r", tag, t)).ok());
  };
  push(0, "A", Seconds(1));
  push(0, "B", Seconds(2));
  push(1, "A", Seconds(3));
  push(1, "B", Seconds(4));
  push(2, "B", Seconds(5));
  push(2, "A", Seconds(6));
  push(3, "A", Seconds(7));
  push(3, "B", Seconds(8));

  ASSERT_EQ(out.tuples().size(), 2u);
  EXPECT_EQ(out.tuples()[0].value(0).string_value(), "A");
  EXPECT_EQ(out.tuples()[0].value(1).time_value(), Seconds(1));
  EXPECT_EQ(out.tuples()[1].value(0).string_value(), "B");
}

TEST(SeqQualifyTest, RecentPicksMostRecentQualifying) {
  // With a tag join, RECENT must skip a more recent non-qualifying tuple
  // in favor of an older qualifying one.
  SeqBuilder b({"C1", "C2"});
  b.Mode(PairingMode::kRecent)
      .Pairwise(0, 1, "C1.tagid = C2.tagid")
      .Project({"C1.tagtime", "C2.tagtime"},
               {{"t1", TypeId::kTimestamp}, {"t2", TypeId::kTimestamp}});
  auto op = b.Build();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Reading(b.schema(), "r", "A", Seconds(1))).ok());
  ASSERT_TRUE(op->OnTuple(0, Reading(b.schema(), "r", "B", Seconds(2))).ok());
  ASSERT_TRUE(op->OnTuple(1, Reading(b.schema(), "r", "A", Seconds(3))).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(0).time_value(), Seconds(1));
}

// ---------------------------------------------------------------------------
// Windows on SEQ
// ---------------------------------------------------------------------------

TEST(SeqWindowTest, PrecedingWindowAnchoredAtLast) {
  // SEQ(C1, C2) OVER [10 SECONDS PRECEDING C2].
  SeqBuilder b({"C1", "C2"});
  b.Mode(PairingMode::kUnrestricted)
      .Window(Seconds(10), WindowDirection::kPreceding, 1)
      .Project({"C1.tagtime", "C2.tagtime"},
               {{"t1", TypeId::kTimestamp}, {"t2", TypeId::kTimestamp}});
  auto op = b.Build();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Reading(b.schema(), "r", "x", Seconds(1))).ok());
  ASSERT_TRUE(op->OnTuple(0, Reading(b.schema(), "r", "x", Seconds(8))).ok());
  // C2 at 12s: C1@1 is 11s earlier (outside), C1@8 is 4s earlier (inside).
  ASSERT_TRUE(op->OnTuple(1, Reading(b.schema(), "r", "x", Seconds(12))).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(0).time_value(), Seconds(8));
}

TEST(SeqWindowTest, WindowEvictsHistory) {
  SeqBuilder b({"C1", "C2"});
  b.Mode(PairingMode::kUnrestricted)
      .Window(Seconds(10), WindowDirection::kPreceding, 1);
  auto op = b.Build();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        op->OnTuple(0, Reading(b.schema(), "r", "x", Seconds(i))).ok());
  }
  // Only tuples within the last 10 seconds survive.
  EXPECT_LE(op->history_size(), 11u);
  // Heartbeats evict without arrivals.
  ASSERT_TRUE(op->OnHeartbeat(Seconds(1000)).ok());
  EXPECT_EQ(op->history_size(), 0u);
}

TEST(SeqWindowTest, FollowingWindowAnchoredAtFirst) {
  // SEQ(C1, C2, C3) OVER [10 SECONDS FOLLOWING C1]: the whole sequence
  // must finish within 10s of C1.
  SeqBuilder b({"C1", "C2", "C3"});
  b.Mode(PairingMode::kUnrestricted)
      .Window(Seconds(10), WindowDirection::kFollowing, 0)
      .Project({"C1.tagtime", "C3.tagtime"},
               {{"t1", TypeId::kTimestamp}, {"t3", TypeId::kTimestamp}});
  auto op = b.Build();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Reading(b.schema(), "r", "x", Seconds(0))).ok());
  ASSERT_TRUE(op->OnTuple(1, Reading(b.schema(), "r", "x", Seconds(5))).ok());
  ASSERT_TRUE(op->OnTuple(2, Reading(b.schema(), "r", "x", Seconds(15))).ok());
  EXPECT_TRUE(out.tuples().empty());  // C3 at 15s > 0s + 10s
  ASSERT_TRUE(op->OnTuple(0, Reading(b.schema(), "r", "x", Seconds(20))).ok());
  ASSERT_TRUE(op->OnTuple(1, Reading(b.schema(), "r", "x", Seconds(22))).ok());
  ASSERT_TRUE(op->OnTuple(2, Reading(b.schema(), "r", "x", Seconds(25))).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(0).time_value(), Seconds(20));
}

TEST(SeqWindowTest, MidSequenceAnchor) {
  // OVER [5 SECONDS FOLLOWING C2] in SEQ(C1, C2, C3): C3 must be within
  // 5s of C2; C1 is unconstrained.
  SeqBuilder b({"C1", "C2", "C3"});
  b.Mode(PairingMode::kUnrestricted)
      .Window(Seconds(5), WindowDirection::kFollowing, 1)
      .Project({"C1.tagtime", "C2.tagtime", "C3.tagtime"},
               {{"t1", TypeId::kTimestamp},
                {"t2", TypeId::kTimestamp},
                {"t3", TypeId::kTimestamp}});
  auto op = b.Build();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Reading(b.schema(), "r", "x", Seconds(0))).ok());
  ASSERT_TRUE(op->OnTuple(1, Reading(b.schema(), "r", "x", Seconds(100))).ok());
  ASSERT_TRUE(op->OnTuple(2, Reading(b.schema(), "r", "x", Seconds(103))).ok());
  ASSERT_EQ(out.tuples().size(), 1u);  // C1 100s earlier is fine
  ASSERT_TRUE(op->OnTuple(1, Reading(b.schema(), "r", "x", Seconds(200))).ok());
  ASSERT_TRUE(op->OnTuple(2, Reading(b.schema(), "r", "x", Seconds(206))).ok());
  EXPECT_EQ(out.tuples().size(), 1u);  // C3 6s after C2: rejected
}

// ---------------------------------------------------------------------------
// Purging / state size
// ---------------------------------------------------------------------------

TEST(SeqPurgeTest, UnrestrictedHistoryGrowsWithoutWindow) {
  SeqBuilder b({"C1", "C2"});
  auto op = b.Mode(PairingMode::kUnrestricted).Build();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        op->OnTuple(0, Reading(b.schema(), "r", "x", Seconds(i))).ok());
  }
  EXPECT_EQ(op->history_size(), 100u);
}

TEST(SeqPurgeTest, RecentKeepsConstantHistory) {
  // The paper's claim: RECENT allows aggressive purging — earlier tuples
  // are replaced by later ones.
  SeqBuilder b({"C1", "C2", "C3"});
  auto op = b.Mode(PairingMode::kRecent).Build();
  CollectOperator out;
  op->AddSink(&out);
  for (int i = 0; i < 300; i += 3) {
    ASSERT_TRUE(
        op->OnTuple(0, Reading(b.schema(), "r", "x", Seconds(i))).ok());
    ASSERT_TRUE(
        op->OnTuple(1, Reading(b.schema(), "r", "x", Seconds(i + 1))).ok());
    ASSERT_TRUE(
        op->OnTuple(2, Reading(b.schema(), "r", "x", Seconds(i + 2))).ok());
  }
  EXPECT_EQ(out.tuples().size(), 100u);
  // Exact purge: per non-final position at most (bounds + latest) entries.
  EXPECT_LE(op->history_size(), 4u);
}

TEST(SeqPurgeTest, RecentPurgeKeepsCorrectness) {
  // Replay the §3.1.1 walkthrough but interleave purges: result must be
  // identical to the unpurged RECENT run.
  SeqBuilder b({"C1", "C2", "C3", "C4"});
  auto op = b.Mode(PairingMode::kRecent).Build();
  CollectOperator out;
  op->AddSink(&out);
  auto push = [&](size_t port, Timestamp t) {
    ASSERT_TRUE(op->OnTuple(port, Reading(b.schema(), "r", "x", t)).ok());
  };
  push(0, Seconds(1));
  push(0, Seconds(2));
  push(1, Seconds(3));
  push(2, Seconds(4));
  push(2, Seconds(5));
  push(1, Seconds(6));
  push(3, Seconds(7));
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(0).time_value(), Seconds(2));
  EXPECT_EQ(out.tuples()[0].value(1).time_value(), Seconds(3));
  EXPECT_EQ(out.tuples()[0].value(2).time_value(), Seconds(5));
}

TEST(SeqPurgeTest, ChronicleConsumptionBoundsHistory) {
  SeqBuilder b({"C1", "C2"});
  auto op = b.Mode(PairingMode::kChronicle).Build();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        op->OnTuple(0, Reading(b.schema(), "r", "x", Seconds(2 * i))).ok());
    ASSERT_TRUE(
        op->OnTuple(1, Reading(b.schema(), "r", "x", Seconds(2 * i + 1)))
            .ok());
  }
  EXPECT_EQ(op->history_size(), 0u);  // every C1 got consumed
  EXPECT_EQ(op->matches_emitted(), 100u);
}

TEST(SeqPurgeTest, ConsecutiveKeepsOnlyCurrentRun) {
  SeqBuilder b({"C1", "C2", "C3"});
  auto op = b.Mode(PairingMode::kConsecutive).Build();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        op->OnTuple(0, Reading(b.schema(), "r", "x", Seconds(i))).ok());
  }
  // Repeated C1 arrivals keep resetting the run.
  EXPECT_LE(op->history_size(), 1u);
}

// ---------------------------------------------------------------------------
// Arrival filters and validation
// ---------------------------------------------------------------------------

TEST(SeqConfigTest, ArrivalFilterIgnoresNonQualifyingTuples) {
  SeqBuilder b({"C1", "C2"});
  b.Mode(PairingMode::kUnrestricted)
      .ArrivalFilter(0, "C1.readerid = 'dock'")
      .Project({"C1.tagtime", "C2.tagtime"},
               {{"t1", TypeId::kTimestamp}, {"t2", TypeId::kTimestamp}});
  auto op = b.Build();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Reading(b.schema(), "gate", "x", Seconds(1))).ok());
  ASSERT_TRUE(op->OnTuple(0, Reading(b.schema(), "dock", "x", Seconds(2))).ok());
  ASSERT_TRUE(op->OnTuple(1, Reading(b.schema(), "r2", "x", Seconds(3))).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(0).time_value(), Seconds(2));
}

TEST(SeqConfigTest, MakeValidation) {
  SeqOperatorConfig config;  // no positions
  EXPECT_TRUE(SeqOperator::Make(std::move(config)).status().IsInvalid());

  SeqBuilder b({"A", "B"}, {true, true});
  b.PerTupleStar(0).Project({"A.tagid"}, {{"x", TypeId::kString}});
  // Two stars + per-tuple return violates footnote 4. SeqBuilder's
  // EXPECT would fire inside Build, so call Make directly.
  SeqOperatorConfig c2;
  c2.positions = {{"A", cep_test::ReadingSchema(), true},
                  {"B", cep_test::ReadingSchema(), true}};
  c2.per_tuple_star = 0;
  c2.projection.push_back(std::make_unique<BoundLiteral>(Value::Int(1)));
  c2.out_schema = Schema::Make({{"x", TypeId::kInt64}});
  EXPECT_TRUE(SeqOperator::Make(std::move(c2)).status().IsInvalid());

  SeqOperatorConfig c3;
  c3.positions = {{"A", cep_test::ReadingSchema(), false},
                  {"B", cep_test::ReadingSchema(), false}};
  c3.projection.push_back(std::make_unique<BoundLiteral>(Value::Int(1)));
  c3.out_schema = Schema::Make({{"x", TypeId::kInt64}});
  SeqWindow w;
  w.anchor = 5;  // out of range
  c3.window = w;
  EXPECT_TRUE(SeqOperator::Make(std::move(c3)).status().IsInvalid());
}

TEST(SeqConfigTest, PortOutOfRange) {
  SeqBuilder b({"A", "B"});
  auto op = b.Build();
  EXPECT_TRUE(op->OnTuple(7, Reading(b.schema(), "r", "x", 0))
                  .IsExecutionError());
}

TEST(SeqQualifyTest, SimultaneousTimestampsOrderedByArrival) {
  // Ties on timestamp are broken by arrival order (documented choice).
  SeqBuilder b({"C1", "C2"});
  auto op = b.Mode(PairingMode::kUnrestricted).Build();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Reading(b.schema(), "r", "x", Seconds(1))).ok());
  ASSERT_TRUE(op->OnTuple(1, Reading(b.schema(), "r", "x", Seconds(1))).ok());
  EXPECT_EQ(out.tuples().size(), 1u);
  // Reversed arrival: C2 then C1 at the same timestamp -> no event.
  SeqBuilder b2({"C1", "C2"});
  auto op2 = b2.Mode(PairingMode::kUnrestricted).Build();
  CollectOperator out2;
  op2->AddSink(&out2);
  ASSERT_TRUE(op2->OnTuple(1, Reading(b2.schema(), "r", "x", Seconds(1))).ok());
  ASSERT_TRUE(op2->OnTuple(0, Reading(b2.schema(), "r", "x", Seconds(1))).ok());
  EXPECT_TRUE(out2.tuples().empty());
}

// ---------------------------------------------------------------------------
// Keyed matching (DESIGN.md §5)
// ---------------------------------------------------------------------------

struct KeyConjunct {
  size_t pos_a;
  size_t pos_b;
  std::string expr;
};

struct KeyShape {
  std::vector<bool> stars;
  PairingMode mode;
  std::vector<KeyConjunct> pairwise;
  std::string keys;  // expected KeyDescription()
};

TEST(SeqKeyTest, DerivesTheTriggersEqualityClass) {
  const auto U = PairingMode::kUnrestricted;
  const KeyShape shapes[] = {
      // Chained and all-against-the-first forms give the same class.
      {{}, U, {{0, 1, "A.tagid = B.tagid"}, {1, 2, "B.tagid = C.tagid"}},
       "A.tagid, B.tagid, C.tagid"},
      {{}, U, {{0, 1, "A.tagid = B.tagid"}, {0, 2, "C.tagid = A.tagid"}},
       "A.tagid, B.tagid, C.tagid"},
      // B left unlinked; a second class (readerid) stays interpreted.
      {{}, PairingMode::kChronicle,
       {{0, 2, "A.tagid = C.tagid"}, {1, 2, "B.readerid = C.readerid"}},
       "A.tagid, C.tagid"},
      {{}, PairingMode::kRecent,
       {{1, 2, "B.readerid = C.readerid"}, {0, 2, "A.tagid = C.tagid"},
        {0, 1, "A.tagid = B.tagid"}},
       "A.tagid, B.tagid, C.tagid"},
      // Nothing links the trigger.
      {{}, U, {{0, 1, "A.tagid = B.tagid"}}, ""},
      // Not plain column equalities.
      {{}, U, {{0, 1, "A.tagid < B.tagid"}, {1, 2, "B.tagid < C.tagid"}},
       ""},
      {{}, U, {{1, 2, "B.tagid = C.tagid OR 1 = 0"}}, ""},
      {{}, U, {{1, 2, "B.tagtime + 1 SECONDS = C.tagtime"}}, ""},
      // CONSECUTIVE stays unkeyed.
      {{}, PairingMode::kConsecutive,
       {{0, 1, "A.tagid = B.tagid"}, {1, 2, "B.tagid = C.tagid"}}, ""},
      // A star position never joins the class; a trailing star unkeys.
      {{false, true, false}, U,
       {{0, 1, "A.tagid = B.tagid"}, {1, 2, "B.tagid = C.tagid"}}, ""},
      {{false, true, false}, U,
       {{0, 1, "A.tagid = B.tagid"}, {0, 2, "A.tagid = C.tagid"}},
       "A.tagid, C.tagid"},
      {{false, false, true}, U,
       {{0, 1, "A.tagid = B.tagid"}, {1, 2, "B.tagid = C.tagid"}}, ""},
  };
  for (const KeyShape& shape : shapes) {
    SeqBuilder b({"A", "B", "C"}, shape.stars);
    b.Mode(shape.mode);
    std::string where;
    for (const KeyConjunct& c : shape.pairwise) {
      b.Pairwise(c.pos_a, c.pos_b, c.expr);
      where += c.expr + "; ";
    }
    EXPECT_EQ(b.Build()->KeyDescription(), shape.keys) << where;
  }
}

TEST(SeqKeyTest, TypeMismatchedKeysAreSkippedNotRaised) {
  // The interpreter raises a TypeError on `'A' = 1`; the keyed matcher
  // skips the other-key entry before interpreting it.
  SeqBuilder b({"C1", "C2"});
  b.Pairwise(0, 1, "C1.tagid = C2.tagid");
  auto op = b.Build();
  CollectOperator out;
  op->AddSink(&out);
  const SchemaPtr& s = b.schema();
  ASSERT_TRUE(op->OnTuple(0, Reading(s, "r", "A", Seconds(1))).ok());
  // An INT tag on a VARCHAR column, as an untyped stream would carry it.
  ASSERT_TRUE(op->OnTuple(0, Tuple(s,
                                   {Value::String("r"), Value::Int(1),
                                    Value::Time(Seconds(2))},
                                   Seconds(2)))
                  .ok());
  ASSERT_TRUE(op->OnTuple(1, Reading(s, "r", "A", Seconds(3))).ok());
  EXPECT_EQ(out.tuples().size(), 1u);
}

// A checkpoint of SEQ(C1, C2) whose one C1 history entry holds `tuple`.
std::string SeqCheckpointHolding(const Tuple& tuple) {
  BinaryEncoder enc;
  enc.PutU8(kSeqCheckpointTag);
  enc.PutU64(1);  // arrival_seq
  enc.PutU64(0);  // matches_emitted
  enc.PutU64(1);  // tuples_stored
  enc.PutU64(0);  // tuples_purged
  enc.PutU32(2);  // positions
  enc.PutU32(1);  // C1: one entry of one tuple
  enc.PutU32(1);
  enc.PutTuple(tuple);
  enc.PutU64(0);  // first_seq
  enc.PutU64(0);  // last_seq
  enc.PutBool(false);
  enc.PutU32(0);  // C2: none
  enc.PutU32(0);  // no CONSECUTIVE run
  return enc.buffer();
}

TEST(SeqKeyTest, RestoreRecomputesKeysAndRejectsTupleWithoutKeyColumn) {
  const auto build = [](SeqBuilder* b) {
    b->Mode(PairingMode::kChronicle).Pairwise(0, 1, "C1.tagid = C2.tagid");
    return b->Build();
  };
  SeqBuilder b({"C1", "C2"});
  auto op = build(&b);
  ASSERT_EQ(op->KeyDescription(), "C1.tagid, C2.tagid");
  CollectOperator out;
  op->AddSink(&out);
  const std::string good =
      SeqCheckpointHolding(Reading(b.schema(), "r", "A", Seconds(1)));
  BinaryDecoder good_dec(good);
  ASSERT_TRUE(op->RestoreState(&good_dec).ok());
  ASSERT_TRUE(op->OnTuple(1, Reading(b.schema(), "r", "B", Seconds(2))).ok());
  ASSERT_TRUE(op->OnTuple(1, Reading(b.schema(), "r", "A", Seconds(3))).ok());
  EXPECT_EQ(out.tuples().size(), 1u);

  // A crafted checkpoint whose history tuple is too short to hash.
  SeqBuilder b2({"C1", "C2"});
  auto crafted = build(&b2);
  const SchemaPtr narrow = Schema::Make({{"readerid", TypeId::kString}});
  const std::string bad = SeqCheckpointHolding(
      *MakeTuple(narrow, {Value::String("r")}, Seconds(1)));
  BinaryDecoder bad_dec(bad);
  EXPECT_TRUE(crafted->RestoreState(&bad_dec).IsIoError());
}

// The leading tag byte of SEQ state: 1 marked the removed NFA backend's
// state, which must be refused with an error that says so, never
// misread; any other foreign value is an unknown tag.
Status RestoreWithTag(uint8_t tag) {
  SeqBuilder b({"C1", "C2"});
  auto op = b.Mode(PairingMode::kChronicle).Build();
  std::string bytes =
      SeqCheckpointHolding(Reading(b.schema(), "r", "A", Seconds(1)));
  bytes[0] = static_cast<char>(tag);
  BinaryDecoder dec(bytes);
  return op->RestoreState(&dec);
}

TEST(SeqCheckpointTagTest, RemovedBackendTagIsRejected) {
  EXPECT_TRUE(RestoreWithTag(kSeqCheckpointTag).ok());
  const Status st = RestoreWithTag(1);
  EXPECT_TRUE(st.IsIoError()) << st;
  EXPECT_NE(st.message().find("removed NFA backend"), std::string::npos)
      << st;
}

TEST(SeqCheckpointTagTest, UnknownTagIsRejected) {
  const Status st = RestoreWithTag(7);
  EXPECT_TRUE(st.IsIoError()) << st;
  EXPECT_NE(st.message().find("unknown backend tag 7"), std::string::npos)
      << st;
}

TEST(SeqKeyTest, ArrivalWithoutKeyColumnIsAnError) {
  SeqBuilder b({"C1", "C2"});
  b.Pairwise(0, 1, "C1.tagid = C2.tagid");
  auto op = b.Build();
  const SchemaPtr narrow = Schema::Make({{"readerid", TypeId::kString}});
  EXPECT_TRUE(
      op->OnTuple(0, *MakeTuple(narrow, {Value::String("r")}, Seconds(1)))
          .IsExecutionError());
}

}  // namespace
}  // namespace eslev
