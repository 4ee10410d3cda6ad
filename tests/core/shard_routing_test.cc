// The shard rules of core/shard_routing.h, tested directly and
// deterministically: which shard owns a tuple, and how a shard engine
// applies a tuple behind its clock or a stale heartbeat. The shard
// worker and the hot standby both call these functions; racing
// producers that drive them through the queues are covered by
// ShardedEngineTest.ConcurrentProducersKeepShardHistoriesOrdered and
// ShardedEngineWatermarkTest.RacingStaleProducersNeverMoveTimeBackward.

#include "core/shard_routing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/sharded_engine.h"

namespace eslev {
namespace {

class ShardApplyOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.ExecuteScript("CREATE STREAM s(a, t_time);").ok());
    ASSERT_TRUE(engine_
                    .Subscribe("s",
                               [this](const Tuple& t) {
                                 observed_.push_back(t.ts());
                                 values_.push_back(t.value(0).string_value());
                               })
                    .ok());
  }

  Status Apply(const std::string& a, Timestamp ts) {
    auto tuple = MakeTuple(engine_.FindStream("s")->schema(),
                           {Value::String(a), Value::Time(ts)}, ts);
    EXPECT_TRUE(tuple.ok()) << tuple.status();
    return ApplyShardTuple(engine_, "s", *tuple);
  }

  Engine engine_;
  std::vector<Timestamp> observed_;
  std::vector<std::string> values_;
};

TEST_F(ShardApplyOrderTest, LateTupleIsAppliedAtTheClock) {
  ASSERT_TRUE(Apply("x", Seconds(100)).ok());
  ASSERT_TRUE(Apply("y", Seconds(1)).ok());  // late: clamped, not rejected
  EXPECT_EQ(observed_, (std::vector<Timestamp>{Seconds(100), Seconds(100)}));
  EXPECT_EQ(values_, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(engine_.current_time(), Seconds(100));
}

TEST_F(ShardApplyOrderTest, TupleAtOrAheadOfTheClockKeepsItsTimestamp) {
  ASSERT_TRUE(Apply("x", Seconds(5)).ok());
  ASSERT_TRUE(Apply("y", Seconds(5)).ok());
  ASSERT_TRUE(Apply("z", Seconds(7)).ok());
  EXPECT_EQ(observed_,
            (std::vector<Timestamp>{Seconds(5), Seconds(5), Seconds(7)}));
}

TEST_F(ShardApplyOrderTest, StaleHeartbeatIsDropped) {
  ASSERT_TRUE(ApplyShardHeartbeat(engine_, Seconds(50)).ok());
  ASSERT_TRUE(ApplyShardHeartbeat(engine_, Seconds(10)).ok());  // no-op
  EXPECT_EQ(engine_.current_time(), Seconds(50));
  ASSERT_TRUE(ApplyShardHeartbeat(engine_, Seconds(60)).ok());
  EXPECT_EQ(engine_.current_time(), Seconds(60));
}

TEST_F(ShardApplyOrderTest, InterleavedLateTuplesAndStaleTicksStayOrdered) {
  // Two producers whose clocks disagree, one counting up and one
  // counting down, plus a heartbeat source that is often stale, in one
  // fixed interleaving: the applied history is nondecreasing, nothing is
  // rejected, and the clock ends at the largest time seen.
  Timestamp max_seen = kMinTimestamp;
  for (int i = 0; i < 200; ++i) {
    const Timestamp up = Seconds(i) + Milliseconds(211);
    const Timestamp down = Seconds(200 - i);
    const Timestamp tick = Seconds(i % 37);
    ASSERT_TRUE(Apply("up", up).ok());
    ASSERT_TRUE(Apply("down", down).ok());
    ASSERT_TRUE(ApplyShardHeartbeat(engine_, tick).ok());
    max_seen = std::max({max_seen, up, down, tick});
  }
  ASSERT_EQ(observed_.size(), 400u);
  EXPECT_TRUE(std::is_sorted(observed_.begin(), observed_.end()));
  EXPECT_EQ(engine_.current_time(), max_seen);
}

TEST(ShardHeartbeatTest, RepeatedTickAtTheClockEmitsNothingNew) {
  // ApplyShardHeartbeat applies a tick at the engine clock (a promoted
  // standby's alignment tick included), so a second AdvanceTime at the
  // current time must emit nothing: no SEQ window expiry, EXCEPTION_SEQ
  // deadline or windowed NOT EXISTS release fires twice.
  Engine engine;
  ASSERT_TRUE(engine.ExecuteScript(R"sql(
    CREATE STREAM C1(readerid, tagid, tagtime);
    CREATE STREAM C2(readerid, tagid, tagtime);
    CREATE STREAM C3(readerid, tagid, tagtime);
  )sql")
                  .ok());
  const std::vector<std::string> queries = {
      "SELECT C1.tagid, C2.tagid FROM C1, C2 WHERE SEQ(C1, C2) OVER "
      "[10 SECONDS PRECEDING C2] AND C1.tagid = C2.tagid",
      "SELECT C1.tagid, C2.tagid, C3.tagid FROM C1, C2, C3 WHERE "
      "EXCEPTION_SEQ(C1, C2, C3) OVER [5 SECONDS FOLLOWING C1]",
      "SELECT * FROM C1 AS a WHERE NOT EXISTS (SELECT * FROM C1 AS b OVER "
      "[2 SECONDS PRECEDING AND FOLLOWING a] WHERE b.tagid = a.tagid)"};
  std::vector<size_t> emitted(queries.size(), 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto q = engine.RegisterQuery(queries[i]);
    ASSERT_TRUE(q.ok()) << q.status();
    ASSERT_TRUE(engine
                    .Subscribe(q->output_stream,
                               [&emitted, i](const Tuple&) { ++emitted[i]; })
                    .ok());
  }
  const auto push = [&](const std::string& stream, Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push(stream,
                          {Value::String("r"), Value::String("a"),
                           Value::Time(ts)},
                          ts)
                    .ok());
  };
  push("C1", Seconds(1));
  push("C2", Seconds(2));
  // Ticks at the NOT EXISTS window end (3 s), the EXCEPTION_SEQ deadline
  // (6 s) and past the SEQ window (13 s), each applied twice.
  for (const Timestamp tick : {Seconds(3), Seconds(6), Seconds(13)}) {
    ASSERT_TRUE(engine.AdvanceTime(tick).ok());
    const std::vector<size_t> before = emitted;
    ASSERT_TRUE(engine.AdvanceTime(tick).ok());
    ASSERT_TRUE(ApplyShardHeartbeat(engine, tick).ok());
    EXPECT_EQ(emitted, before) << "second tick at " << tick;
  }
  EXPECT_EQ(emitted, (std::vector<size_t>{1, 1, 1}));
}

StreamRoute Route(size_t key_index, bool single_shard = false) {
  StreamRoute route;
  route.name = "readings";
  route.key_index = key_index;
  route.single_shard = single_shard;
  return route;
}

Tuple Reading(const std::string& tag) {
  return Tuple(nullptr, {Value::String("rd"), Value::String(tag)}, 0);
}

TEST(ShardRoutingTest, ShardIsKeyHashModuloShardCount) {
  ShardRouting routing{4, {}};
  const StreamRoute route = Route(1);
  for (const char* tag : {"a", "b", "tag17", "urn:epc:1"}) {
    const Tuple t = Reading(tag);
    EXPECT_EQ(routing.ShardOf(route, t), Value::String(tag).Hash() % 4)
        << tag;
  }
}

TEST(ShardRoutingTest, SingleShardStreamsAndOneShardRouteToShardZero) {
  const Tuple t = Reading("tag17");
  EXPECT_EQ((ShardRouting{4, {}}).ShardOf(Route(1, /*single_shard=*/true), t),
            0u);
  EXPECT_EQ((ShardRouting{1, {}}).ShardOf(Route(1), t), 0u);
}

TEST(ShardRoutingTest, TupleWithoutItsKeyColumnIsInvalid) {
  const ShardRouting routing{4, {}};
  const Tuple t = Reading("tag17");  // two columns
  EXPECT_TRUE(routing.CheckKey(Route(1), t).ok());
  EXPECT_TRUE(routing.CheckKey(Route(2), t).IsInvalid());
  // A single-shard stream needs no key.
  EXPECT_TRUE(routing.CheckKey(Route(2, /*single_shard=*/true), t).ok());
}

TEST(ShardRoutingTest, PrimaryRoutingCopiesEveryRouteCaseInsensitively) {
  ShardedEngineOptions options;
  options.num_shards = 3;
  ShardedEngine engine(options);
  ASSERT_TRUE(
      engine.ExecuteScript("CREATE STREAM Readings(reader_id, tag_id, t);")
          .ok());
  ASSERT_TRUE(engine.SetSingleShard("readings").ok());
  const ShardRouting routing = engine.routing();
  EXPECT_EQ(routing.num_shards, 3u);
  const StreamRoute* route = routing.Find("READINGS");
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->name, "Readings");
  EXPECT_EQ(route->key_index, 1u);  // tag_id
  EXPECT_TRUE(route->single_shard);
  EXPECT_EQ(routing.Find("missing"), nullptr);
}

}  // namespace
}  // namespace eslev
