// EXCEPTION_SEQ / CLEVEL_SEQ (paper §3.1.3): the lab-workflow scenario of
// Example 5 — operations A, B, C must occur in order within 1 hour.

#include "cep/exception_seq_operator.h"

#include <gtest/gtest.h>

#include "exec/basic_ops.h"
#include "expr/binder.h"
#include "sql/parser.h"

namespace eslev {
namespace {

SchemaPtr OpSchema() {
  return Schema::Make({{"staff", TypeId::kString},
                       {"tagid", TypeId::kString},
                       {"tagtime", TypeId::kTimestamp}});
}

Tuple Op(const SchemaPtr& s, const std::string& staff, const std::string& tag,
         Timestamp ts) {
  return *MakeTuple(
      s, {Value::String(staff), Value::String(tag), Value::Time(ts)}, ts);
}

class ExceptionSeqTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = OpSchema();
    for (const char* alias : {"A1", "A2", "A3"}) {
      scope_.AddEntry({alias, schema_, 0, false});
    }
  }

  BoundExprPtr Bind(const std::string& text) {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    Binder binder(&scope_, &registry_);
    auto bound = binder.Bind(**parsed);
    EXPECT_TRUE(bound.ok()) << bound.status();
    return std::move(bound).ValueUnsafe();
  }

  // EXCEPTION_SEQ(A1, A2, A3) OVER [1 HOURS FOLLOWING A1], projecting the
  // three tagids (unreached ones are NULL).
  std::unique_ptr<ExceptionSeqOperator> MakeOp(
      PairingMode mode = PairingMode::kConsecutive, bool with_window = true,
      BinaryOp level_op = BinaryOp::kLt, int64_t level_rhs = 3,
      size_t anchor = 0) {
    ExceptionSeqConfig config;
    for (const char* alias : {"A1", "A2", "A3"}) {
      config.positions.push_back({alias, schema_, false});
    }
    config.mode = mode;
    if (with_window) {
      SeqWindow w;
      w.length = Hours(1);
      w.direction = WindowDirection::kFollowing;
      w.anchor = anchor;
      config.window = w;
    }
    config.projection.push_back(Bind("A1.tagid"));
    config.projection.push_back(Bind("A2.tagid"));
    config.projection.push_back(Bind("A3.tagid"));
    config.out_schema = Schema::Make({{"a1", TypeId::kString},
                                      {"a2", TypeId::kString},
                                      {"a3", TypeId::kString}});
    config.level_op = level_op;
    config.level_rhs = level_rhs;
    auto op = ExceptionSeqOperator::Make(std::move(config));
    EXPECT_TRUE(op.ok()) << op.status();
    return std::move(op).ValueUnsafe();
  }

  SchemaPtr schema_;
  BindScope scope_;
  FunctionRegistry registry_;
};

TEST_F(ExceptionSeqTest, CorrectWorkflowRaisesNothing) {
  auto op = MakeOp();
  CollectOperator out;
  op->AddSink(&out);
  for (int round = 0; round < 3; ++round) {
    Timestamp base = Minutes(round * 90);
    ASSERT_TRUE(op->OnTuple(0, Op(schema_, "s", "opA", base)).ok());
    ASSERT_TRUE(
        op->OnTuple(1, Op(schema_, "s", "opB", base + Minutes(10))).ok());
    ASSERT_TRUE(
        op->OnTuple(2, Op(schema_, "s", "opC", base + Minutes(20))).ok());
  }
  EXPECT_TRUE(out.tuples().empty());
  EXPECT_EQ(op->sequences_completed(), 3u);
  EXPECT_EQ(op->exceptions_emitted(), 0u);
}

TEST_F(ExceptionSeqTest, WrongOrderRaisesException) {
  // "C directly follows A": partial (A) cannot extend with C.
  auto op = MakeOp();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Op(schema_, "s", "opA", Minutes(1))).ok());
  ASSERT_TRUE(op->OnTuple(2, Op(schema_, "s", "opC", Minutes(2))).ok());
  ASSERT_EQ(out.tuples().size(), 2u);
  // First event: level-1 exception for the partial (A), offender C bound.
  EXPECT_EQ(out.tuples()[0].value(0).string_value(), "opA");
  EXPECT_TRUE(out.tuples()[0].value(1).is_null());
  EXPECT_EQ(out.tuples()[0].value(2).string_value(), "opC");
  // Second event: C cannot start a new sequence — level-0 exception.
  EXPECT_TRUE(out.tuples()[1].value(0).is_null());
  EXPECT_EQ(out.tuples()[1].value(2).string_value(), "opC");
  EXPECT_EQ(op->exceptions_emitted(), 2u);
}

TEST_F(ExceptionSeqTest, WrongStartRaisesLevelZero) {
  // "the first event in our sequence is B".
  auto op = MakeOp();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(1, Op(schema_, "s", "opB", Minutes(1))).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_TRUE(out.tuples()[0].value(0).is_null());
  EXPECT_EQ(out.tuples()[0].value(1).string_value(), "opB");
}

TEST_F(ExceptionSeqTest, WindowExpiryViaActiveExpiration) {
  // Sequence started but not finished when the 1-hour window expires;
  // detection happens on a heartbeat, with no tuple arrivals.
  auto op = MakeOp();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Op(schema_, "s", "opA", Minutes(0))).ok());
  ASSERT_TRUE(op->OnTuple(1, Op(schema_, "s", "opB", Minutes(30))).ok());
  ASSERT_TRUE(op->OnHeartbeat(Minutes(59)).ok());
  EXPECT_TRUE(out.tuples().empty());  // still within the hour
  ASSERT_TRUE(op->OnHeartbeat(Minutes(61)).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(0).string_value(), "opA");
  EXPECT_EQ(out.tuples()[0].value(1).string_value(), "opB");
  EXPECT_TRUE(out.tuples()[0].value(2).is_null());
  EXPECT_EQ(op->partial_level(), 0u);  // reset after expiry
}

TEST_F(ExceptionSeqTest, ExpiryDetectedByLateArrival) {
  // The expired partial raises before the late arrival is processed; the
  // late C then raises its own level-0 exception.
  auto op = MakeOp();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Op(schema_, "s", "opA", Minutes(0))).ok());
  ASSERT_TRUE(op->OnTuple(1, Op(schema_, "s", "opB", Minutes(30))).ok());
  ASSERT_TRUE(op->OnTuple(2, Op(schema_, "s", "opC", Minutes(90))).ok());
  ASSERT_EQ(out.tuples().size(), 2u);
  EXPECT_EQ(out.tuples()[0].value(0).string_value(), "opA");  // expiry
  EXPECT_TRUE(out.tuples()[1].value(0).is_null());            // stray C
  EXPECT_EQ(op->sequences_completed(), 0u);
}

TEST_F(ExceptionSeqTest, CompletionJustInsideWindow) {
  auto op = MakeOp();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Op(schema_, "s", "opA", Minutes(0))).ok());
  ASSERT_TRUE(op->OnTuple(1, Op(schema_, "s", "opB", Minutes(30))).ok());
  ASSERT_TRUE(op->OnTuple(2, Op(schema_, "s", "opC", Minutes(60))).ok());
  EXPECT_TRUE(out.tuples().empty());
  EXPECT_EQ(op->sequences_completed(), 1u);
}

TEST_F(ExceptionSeqTest, RecentModeReplacement) {
  // The paper's example: partial (A,B), then another B arrives — an
  // exception fires and the new B replaces the old one; a following C
  // still completes the sequence.
  auto op = MakeOp(PairingMode::kRecent);
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Op(schema_, "s", "opA", Minutes(0))).ok());
  ASSERT_TRUE(op->OnTuple(1, Op(schema_, "s", "opB1", Minutes(10))).ok());
  ASSERT_TRUE(op->OnTuple(1, Op(schema_, "s", "opB2", Minutes(20))).ok());
  ASSERT_EQ(out.tuples().size(), 1u);  // exception for (A, B1)
  EXPECT_EQ(out.tuples()[0].value(1).string_value(), "opB2");  // offender
  EXPECT_EQ(op->partial_level(), 2u);  // (A, B2) survives
  ASSERT_TRUE(op->OnTuple(2, Op(schema_, "s", "opC", Minutes(30))).ok());
  EXPECT_EQ(op->sequences_completed(), 1u);
  EXPECT_EQ(out.tuples().size(), 1u);  // completion emits nothing (< 3)
}

TEST_F(ExceptionSeqTest, ConsecutiveModeResetsInsteadOfReplacing) {
  auto op = MakeOp(PairingMode::kConsecutive);
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Op(schema_, "s", "opA", Minutes(0))).ok());
  ASSERT_TRUE(op->OnTuple(1, Op(schema_, "s", "opB1", Minutes(10))).ok());
  ASSERT_TRUE(op->OnTuple(1, Op(schema_, "s", "opB2", Minutes(20))).ok());
  // Exception for (A,B1); B2 cannot start a sequence -> second exception.
  ASSERT_EQ(out.tuples().size(), 2u);
  EXPECT_EQ(op->partial_level(), 0u);
}

TEST_F(ExceptionSeqTest, ClevelEqualsCompletionEmitsCompletions) {
  // CLEVEL_SEQ(...) = 3 — emit only completed sequences.
  auto op = MakeOp(PairingMode::kConsecutive, true, BinaryOp::kEq, 3);
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Op(schema_, "s", "opA", Minutes(0))).ok());
  ASSERT_TRUE(op->OnTuple(1, Op(schema_, "s", "opB", Minutes(1))).ok());
  ASSERT_TRUE(op->OnTuple(2, Op(schema_, "s", "opC", Minutes(2))).ok());
  ASSERT_TRUE(op->OnTuple(2, Op(schema_, "s", "stray", Minutes(3))).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(2).string_value(), "opC");
}

TEST_F(ExceptionSeqTest, ClevelLessThanTwoFiltersHighPartials) {
  // CLEVEL_SEQ(...) < 2 — only level-0/1 terminals emit.
  auto op = MakeOp(PairingMode::kConsecutive, true, BinaryOp::kLt, 2);
  CollectOperator out;
  op->AddSink(&out);
  // Level-2 violation: (A,B) then another B — suppressed (2 >= 2).
  ASSERT_TRUE(op->OnTuple(0, Op(schema_, "s", "opA", Minutes(0))).ok());
  ASSERT_TRUE(op->OnTuple(1, Op(schema_, "s", "opB", Minutes(1))).ok());
  ASSERT_TRUE(op->OnTuple(1, Op(schema_, "s", "opB", Minutes(2))).ok());
  EXPECT_EQ(out.tuples().size(), 1u);  // only the level-0 stray-B event
  EXPECT_TRUE(out.tuples()[0].value(0).is_null());
}

TEST_F(ExceptionSeqTest, MidSequenceWindowAnchor) {
  // OVER [1 HOURS FOLLOWING A2]: the clock starts at the second step.
  auto op = MakeOp(PairingMode::kConsecutive, true, BinaryOp::kLt, 3,
                   /*anchor=*/1);
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Op(schema_, "s", "opA", Minutes(0))).ok());
  // No deadline yet: hours may pass before B.
  ASSERT_TRUE(op->OnHeartbeat(Hours(5)).ok());
  EXPECT_TRUE(out.tuples().empty());
  ASSERT_TRUE(op->OnTuple(1, Op(schema_, "s", "opB", Hours(6))).ok());
  // Deadline armed at B + 1h.
  ASSERT_TRUE(op->OnHeartbeat(Hours(7) + Minutes(1)).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(1).string_value(), "opB");
}

TEST_F(ExceptionSeqTest, MakeValidation) {
  ExceptionSeqConfig empty;
  EXPECT_TRUE(ExceptionSeqOperator::Make(std::move(empty))
                  .status()
                  .IsInvalid());

  ExceptionSeqConfig trailing_star;
  trailing_star.positions = {{"A", schema_, false}, {"B", schema_, true}};
  EXPECT_TRUE(ExceptionSeqOperator::Make(std::move(trailing_star))
                  .status()
                  .IsNotImplemented());

  ExceptionSeqConfig preceding;
  preceding.positions = {{"A", schema_, false}, {"B", schema_, false}};
  SeqWindow w;
  w.direction = WindowDirection::kPreceding;
  preceding.window = w;
  EXPECT_TRUE(ExceptionSeqOperator::Make(std::move(preceding))
                  .status()
                  .IsNotImplemented());

  ExceptionSeqConfig unrestricted;
  unrestricted.positions = {{"A", schema_, false}, {"B", schema_, false}};
  unrestricted.mode = PairingMode::kUnrestricted;
  EXPECT_TRUE(ExceptionSeqOperator::Make(std::move(unrestricted))
                  .status()
                  .IsNotImplemented());
}

TEST_F(ExceptionSeqTest, PairwiseQualification) {
  // Steps must be performed on the same specimen: A1.staff = A2.staff.
  ExceptionSeqConfig config;
  for (const char* alias : {"A1", "A2", "A3"}) {
    config.positions.push_back({alias, schema_, false});
  }
  PairwiseConstraint c1;
  c1.pos_a = 0;
  c1.pos_b = 1;
  c1.expr = Bind("A1.staff = A2.staff");
  config.pairwise.push_back(std::move(c1));
  config.projection.push_back(Bind("A1.tagid"));
  config.projection.push_back(Bind("A2.tagid"));
  config.projection.push_back(Bind("A3.tagid"));
  config.out_schema = Schema::Make({{"a1", TypeId::kString},
                                    {"a2", TypeId::kString},
                                    {"a3", TypeId::kString}});
  config.level_rhs = 3;
  auto op = std::move(ExceptionSeqOperator::Make(std::move(config)))
                .ValueUnsafe();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, Op(schema_, "alice", "opA", Minutes(0))).ok());
  // B by a different staff member: fails qualification -> wrong tuple.
  ASSERT_TRUE(op->OnTuple(1, Op(schema_, "bob", "opB", Minutes(1))).ok());
  ASSERT_EQ(out.tuples().size(), 2u);  // level-1 + level-0 exceptions
}

// The leading tag byte of EXCEPTION_SEQ state: 1 marked the removed NFA
// backend's state and 7 is unknown; both are refused, never misread.
TEST_F(ExceptionSeqTest, CheckpointTagIsValidated) {
  auto op = MakeOp();
  ASSERT_TRUE(op->OnTuple(0, Op(schema_, "alice", "opA", Minutes(0))).ok());
  BinaryEncoder enc;
  ASSERT_TRUE(op->SaveState(&enc).ok());
  const std::string saved = enc.buffer();
  ASSERT_EQ(static_cast<uint8_t>(saved[0]), kSeqCheckpointTag);
  const auto restore_with = [&](uint8_t tag) {
    std::string bytes = saved;
    bytes[0] = static_cast<char>(tag);
    BinaryDecoder dec(bytes);
    return MakeOp()->RestoreState(&dec);
  };
  EXPECT_TRUE(restore_with(kSeqCheckpointTag).ok());
  const Status removed = restore_with(1);
  EXPECT_TRUE(removed.IsIoError()) << removed;
  EXPECT_NE(removed.message().find("EXCEPTION_SEQ checkpoint was written by "
                                   "the removed NFA backend"),
            std::string::npos)
      << removed;
  const Status unknown = restore_with(7);
  EXPECT_TRUE(unknown.IsIoError()) << unknown;
  EXPECT_NE(unknown.message().find("unknown backend tag 7"), std::string::npos)
      << unknown;
}

}  // namespace
}  // namespace eslev
