// Tests for the windowed anti-semi-join, driven by the paper's Example 1
// (duplicate elimination) and Example 8 (theft detection).

#include "exec/windowed_not_exists.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "exec/basic_ops.h"
#include "expr/binder.h"
#include "recovery/codec.h"
#include "sql/parser.h"

namespace eslev {
namespace {

class DedupTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::Make({{"reader_id", TypeId::kString},
                            {"tag_id", TypeId::kString},
                            {"read_time", TypeId::kTimestamp}});
    scope_.AddEntry({"r2", schema_, 0, false});  // inner
    scope_.AddEntry({"r1", schema_, 1, false});  // outer
  }

  BoundExprPtr Bind(const std::string& text) {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    Binder binder(&scope_, &registry_);
    auto bound = binder.Bind(**parsed);
    EXPECT_TRUE(bound.ok()) << bound.status();
    return std::move(bound).ValueUnsafe();
  }

  Tuple Reading(const std::string& reader, const std::string& tag,
                Timestamp ts) {
    return *MakeTuple(
        schema_,
        {Value::String(reader), Value::String(tag), Value::Time(ts)}, ts);
  }

  SchemaPtr schema_;
  BindScope scope_;
  FunctionRegistry registry_;
};

TEST_F(DedupTest, Example1DuplicateElimination) {
  // 1-second PRECEDING window, same stream plays both roles.
  WindowSpec w;
  w.length = Seconds(1);
  w.direction = WindowDirection::kPreceding;
  WindowedNotExistsOperator op(
      w, Bind("r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id"),
      /*same_stream=*/true);
  CollectOperator out;
  op.AddSink(&out);

  ASSERT_TRUE(op.OnTuple(0, Reading("rd1", "A", Milliseconds(0))).ok());
  ASSERT_TRUE(op.OnTuple(0, Reading("rd1", "A", Milliseconds(400))).ok());  // dup
  ASSERT_TRUE(op.OnTuple(0, Reading("rd1", "B", Milliseconds(500))).ok());
  ASSERT_TRUE(op.OnTuple(0, Reading("rd2", "A", Milliseconds(600))).ok());  // other reader
  ASSERT_TRUE(op.OnTuple(0, Reading("rd1", "A", Milliseconds(900))).ok());  // dup of 400
  ASSERT_TRUE(op.OnTuple(0, Reading("rd1", "A", Milliseconds(2000))).ok());  // fresh

  ASSERT_EQ(out.tuples().size(), 4u);
  EXPECT_EQ(out.tuples()[0].ts(), Milliseconds(0));
  EXPECT_EQ(out.tuples()[1].value(1).string_value(), "B");
  EXPECT_EQ(out.tuples()[2].value(0).string_value(), "rd2");
  EXPECT_EQ(out.tuples()[3].ts(), Milliseconds(2000));
}

TEST_F(DedupTest, ChainedDuplicatesStaySuppressed) {
  // A reading every 0.5 s: each is within 1 s of the previous, so only
  // the first survives — duplicates keep refreshing the window.
  WindowSpec w;
  w.length = Seconds(1);
  w.direction = WindowDirection::kPreceding;
  WindowedNotExistsOperator op(
      w, Bind("r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id"),
      true);
  CollectOperator out;
  op.AddSink(&out);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(op.OnTuple(0, Reading("rd", "A", i * Milliseconds(500))).ok());
  }
  EXPECT_EQ(out.tuples().size(), 1u);
}

TEST_F(DedupTest, KeyedProbeWalksOnlyItsBucket) {
  // The planner's split of Example 1: two key pairs, no residual.
  WindowSpec w;
  w.length = Seconds(1);
  w.direction = WindowDirection::kPreceding;
  std::vector<WindowedNotExistsOperator::Key> keys;
  keys.push_back({0, Bind("r1.reader_id")});
  keys.push_back({1, Bind("r1.tag_id")});
  WindowedNotExistsOperator op(w, nullptr, /*same_stream=*/true, nullptr,
                               std::move(keys));
  EXPECT_TRUE(op.keyed());
  CollectOperator out;
  op.AddSink(&out);
  // 50 distinct tags inside one window, then a duplicate of the last.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(op.OnTuple(0, Reading("rd1", "T" + std::to_string(i),
                                      Milliseconds(i)))
                    .ok());
  }
  ASSERT_TRUE(op.OnTuple(0, Reading("rd1", "T49", Milliseconds(60))).ok());
  EXPECT_EQ(out.tuples().size(), 50u);
  EXPECT_EQ(op.buffered_count(), 51u);
  // Key collisions in a load <= 1 table plus the one true match; a scan
  // of the window would compare 1 + 2 + ... + 50 = 1275 times.
  EXPECT_LT(op.probe_comparisons(), 100u);

  // Checkpoint and restore rebuild the chains.
  BinaryEncoder enc;
  ASSERT_TRUE(op.SaveState(&enc).ok());
  std::vector<WindowedNotExistsOperator::Key> keys2;
  keys2.push_back({0, Bind("r1.reader_id")});
  keys2.push_back({1, Bind("r1.tag_id")});
  WindowedNotExistsOperator restored(w, nullptr, true, nullptr,
                                     std::move(keys2));
  CollectOperator out2;
  restored.AddSink(&out2);
  BinaryDecoder dec(enc.buffer());
  ASSERT_TRUE(restored.RestoreState(&dec).ok());
  ASSERT_TRUE(
      restored.OnTuple(0, Reading("rd1", "T7", Milliseconds(70))).ok());
  ASSERT_TRUE(
      restored.OnTuple(0, Reading("rd2", "T7", Milliseconds(80))).ok());
  ASSERT_EQ(out2.tuples().size(), 1u);
  EXPECT_EQ(out2.tuples()[0].value(0).string_value(), "rd2");
}

TEST_F(DedupTest, RestoreRejectsTupleWithoutKeyColumn) {
  // A crafted checkpoint whose buffered tuple is too short to hash.
  WindowSpec w;
  w.length = Seconds(1);
  w.direction = WindowDirection::kPreceding;
  std::vector<WindowedNotExistsOperator::Key> keys;
  keys.push_back({1, Bind("r1.tag_id")});
  WindowedNotExistsOperator op(w, nullptr, true, nullptr, std::move(keys));
  const SchemaPtr narrow = Schema::Make({{"reader_id", TypeId::kString}});
  BinaryEncoder enc;
  enc.PutU64(0);
  enc.PutU32(1);
  enc.PutTuple(*MakeTuple(narrow, {Value::String("rd1")}, 0));
  enc.PutU32(0);
  BinaryDecoder dec(enc.buffer());
  EXPECT_TRUE(op.RestoreState(&dec).IsIoError());
}

TEST_F(DedupTest, TwoStreamMode) {
  // Distinct outer/inner streams via ports.
  WindowSpec w;
  w.length = Seconds(1);
  w.direction = WindowDirection::kPreceding;
  WindowedNotExistsOperator op(w, Bind("r2.tag_id = r1.tag_id"),
                               /*same_stream=*/false);
  CollectOperator out;
  op.AddSink(&out);

  ASSERT_TRUE(op.OnTuple(1, Reading("x", "A", Milliseconds(100))).ok());
  ASSERT_TRUE(op.OnTuple(0, Reading("y", "A", Milliseconds(200))).ok());  // blocked
  ASSERT_TRUE(op.OnTuple(0, Reading("y", "B", Milliseconds(300))).ok());  // passes
  EXPECT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(1).string_value(), "B");
}

// ---------------------------------------------------------------------------
// Example 8: PRECEDING AND FOLLOWING (theft detection)
// ---------------------------------------------------------------------------

class TheftTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::Make({{"tagid", TypeId::kString},
                            {"tagtype", TypeId::kString},
                            {"tagtime", TypeId::kTimestamp}});
    scope_.AddEntry({"person", schema_, 0, false});  // inner = person here
    scope_.AddEntry({"item", schema_, 1, false});    // outer = item
  }

  BoundExprPtr Bind(const std::string& text) {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    Binder binder(&scope_, &registry_);
    auto bound = binder.Bind(**parsed);
    EXPECT_TRUE(bound.ok()) << bound.status();
    return std::move(bound).ValueUnsafe();
  }

  Tuple R(const std::string& id, const std::string& type, Timestamp ts) {
    return *MakeTuple(schema_,
                      {Value::String(id), Value::String(type), Value::Time(ts)},
                      ts);
  }

  // Alert when an item exits with no person within 1 minute before/after.
  // (We phrase the paper's Example 8 with item as the outer tuple: alert
  // carries the unaccompanied item.)
  std::unique_ptr<WindowedNotExistsOperator> MakeOp() {
    WindowSpec w;
    w.length = Minutes(1);
    w.direction = WindowDirection::kPrecedingAndFollowing;
    auto op = std::make_unique<WindowedNotExistsOperator>(
        w, Bind("person.tagtype = 'person'"), /*same_stream=*/true,
        Bind("item.tagtype = 'item'"));
    return op;
  }

  SchemaPtr schema_;
  BindScope scope_;
  FunctionRegistry registry_;
};

TEST_F(TheftTest, PersonBeforeItemSuppressesAlert) {
  auto op = MakeOp();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, R("p1", "person", Seconds(10))).ok());
  ASSERT_TRUE(op->OnTuple(0, R("i1", "item", Seconds(40))).ok());
  ASSERT_TRUE(op->OnHeartbeat(Seconds(200)).ok());
  EXPECT_TRUE(out.tuples().empty());
}

TEST_F(TheftTest, PersonAfterItemSuppressesAlert) {
  auto op = MakeOp();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, R("i1", "item", Seconds(10))).ok());
  EXPECT_EQ(op->pending_count(), 1u);
  ASSERT_TRUE(op->OnTuple(0, R("p1", "person", Seconds(50))).ok());
  EXPECT_EQ(op->pending_count(), 0u);
  ASSERT_TRUE(op->OnHeartbeat(Seconds(200)).ok());
  EXPECT_TRUE(out.tuples().empty());
}

TEST_F(TheftTest, UnaccompaniedItemRaisesAlertOnExpiry) {
  auto op = MakeOp();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, R("i1", "item", Seconds(10))).ok());
  // No alert until the FOLLOWING window passes (active expiration).
  EXPECT_TRUE(out.tuples().empty());
  ASSERT_TRUE(op->OnHeartbeat(Seconds(70)).ok());  // 10s + 60s boundary: still open
  EXPECT_TRUE(out.tuples().empty());
  ASSERT_TRUE(op->OnHeartbeat(Seconds(71)).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(0).string_value(), "i1");
}

TEST_F(TheftTest, PersonTooFarAwayDoesNotSuppress) {
  auto op = MakeOp();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, R("p1", "person", Seconds(10))).ok());
  ASSERT_TRUE(op->OnTuple(0, R("i1", "item", Seconds(100))).ok());  // 90s later
  ASSERT_TRUE(op->OnTuple(0, R("p2", "person", Seconds(200))).ok());  // 100s after
  ASSERT_TRUE(op->OnHeartbeat(Seconds(300)).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(0).string_value(), "i1");
}

TEST_F(TheftTest, LaterArrivalFlushesPendingWithoutHeartbeat) {
  auto op = MakeOp();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, R("i1", "item", Seconds(10))).ok());
  // A later item arrival advances time past i1's deadline.
  ASSERT_TRUE(op->OnTuple(0, R("i2", "item", Seconds(120))).ok());
  ASSERT_EQ(out.tuples().size(), 1u);
  EXPECT_EQ(out.tuples()[0].value(0).string_value(), "i1");
  EXPECT_EQ(op->pending_count(), 1u);  // i2 still pending
}

TEST_F(TheftTest, OnePersonCoversMultipleItems) {
  auto op = MakeOp();
  CollectOperator out;
  op->AddSink(&out);
  ASSERT_TRUE(op->OnTuple(0, R("i1", "item", Seconds(10))).ok());
  ASSERT_TRUE(op->OnTuple(0, R("i2", "item", Seconds(20))).ok());
  ASSERT_TRUE(op->OnTuple(0, R("p1", "person", Seconds(30))).ok());
  ASSERT_TRUE(op->OnHeartbeat(Seconds(500)).ok());
  EXPECT_TRUE(out.tuples().empty());
}

// A same-stream FOLLOWING anti-join must not cancel an arrival's own
// pending entry: isolated reads survive every window form, while a
// second read of the same tag inside the window still cancels.
class SelfFollowingTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::vector<Timestamp> Run(
      const std::vector<std::pair<std::string, Timestamp>>& reads) {
    Engine engine;
    EXPECT_TRUE(engine
                    .ExecuteScript(
                        "CREATE STREAM readings(reader_id, tag_id, read_time);")
                    .ok());
    auto q = engine.RegisterQuery(
        std::string("SELECT * FROM readings AS r1 WHERE NOT EXISTS "
                    "(SELECT * FROM readings AS r2 OVER [") +
        GetParam() + " r1] WHERE r2.tag_id = r1.tag_id)");
    EXPECT_TRUE(q.ok()) << q.status();
    std::vector<Timestamp> out;
    EXPECT_TRUE(engine
                    .Subscribe(q->output_stream,
                               [&out](const Tuple& t) { out.push_back(t.ts()); })
                    .ok());
    for (const auto& [tag, ts] : reads) {
      EXPECT_TRUE(engine
                      .Push("readings",
                            {Value::String("rd"), Value::String(tag),
                             Value::Time(ts)},
                            ts)
                      .ok());
    }
    EXPECT_TRUE(engine.AdvanceTime(Seconds(60)).ok());
    return out;
  }
};

TEST_P(SelfFollowingTest, IsolatedReadsAreEmitted) {
  EXPECT_EQ(Run({{"A", Seconds(1)}, {"B", Seconds(5)}}),
            (std::vector<Timestamp>{Seconds(1), Seconds(5)}));
}

TEST_P(SelfFollowingTest, FollowingReadOfSameTagCancels) {
  const std::vector<Timestamp> out =
      Run({{"A", Seconds(1)}, {"A", Milliseconds(1500)}, {"C", Seconds(5)}});
  const std::string form = GetParam();
  if (form == "1 SECONDS PRECEDING") {
    EXPECT_EQ(out, (std::vector<Timestamp>{Seconds(1), Seconds(5)}));
  } else if (form == "1 SECONDS FOLLOWING") {
    EXPECT_EQ(out, (std::vector<Timestamp>{Milliseconds(1500), Seconds(5)}));
  } else {  // both directions: each A sees the other
    EXPECT_EQ(out, (std::vector<Timestamp>{Seconds(5)}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowForms, SelfFollowingTest,
    ::testing::Values("1 SECONDS FOLLOWING",
                      "1 SECONDS PRECEDING AND FOLLOWING",
                      "1 SECONDS FOLLOWING AND PRECEDING",
                      "1 SECONDS PRECEDING"));

}  // namespace
}  // namespace eslev
