#include "stream/stream.h"

#include <gtest/gtest.h>

#include "exec/basic_ops.h"
#include "stream/window_buffer.h"

namespace eslev {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make(
      {{"tag", TypeId::kString}, {"ts_col", TypeId::kTimestamp}});
}

Tuple T(const SchemaPtr& s, const std::string& tag, Timestamp ts) {
  return *MakeTuple(s, {Value::String(tag), Value::Time(ts)}, ts);
}

TEST(StreamTest, PushFansOutToOperatorsAndCallbacks) {
  auto schema = TestSchema();
  Stream s("readings", schema);
  CollectOperator sink;
  s.Subscribe(&sink);
  int callback_count = 0;
  s.SubscribeCallback([&](const Tuple&) { ++callback_count; });

  ASSERT_TRUE(s.Push(T(schema, "a", 1)).ok());
  ASSERT_TRUE(s.Push(T(schema, "b", 2)).ok());
  EXPECT_EQ(sink.tuples().size(), 2u);
  EXPECT_EQ(callback_count, 2);
  EXPECT_EQ(s.tuples_pushed(), 2u);
}

TEST(StreamTest, PushValidatesArity) {
  Stream s("readings", TestSchema());
  Tuple wrong(TestSchema(), {Value::String("a")}, 0);
  EXPECT_TRUE(s.Push(wrong).IsInvalid());
}

TEST(StreamTest, SubscriptionOrderIsDeliveryOrder) {
  auto schema = TestSchema();
  Stream s("readings", schema);
  std::vector<int> order;
  CallbackOperator first([&](const Tuple&) { order.push_back(1); });
  CallbackOperator second([&](const Tuple&) { order.push_back(2); });
  s.Subscribe(&first);
  s.Subscribe(&second);
  ASSERT_TRUE(s.Push(T(schema, "a", 1)).ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(StreamTest, RetentionKeepsRecentWindow) {
  auto schema = TestSchema();
  Stream s("locations", schema);
  s.SetRetention(Seconds(10));
  for (int i = 0; i <= 20; ++i) {
    ASSERT_TRUE(s.Push(T(schema, "t", Seconds(i))).ok());
  }
  // Retained: ts in [20s - 10s, 20s].
  EXPECT_EQ(s.retained().size(), 11u);
  EXPECT_EQ(s.retained().front().ts(), Seconds(10));

  // Heartbeats trim further without arrivals.
  ASSERT_TRUE(s.Heartbeat(Seconds(25)).ok());
  EXPECT_EQ(s.retained().size(), 6u);
}

TEST(StreamTest, NoRetentionByDefault) {
  auto schema = TestSchema();
  Stream s("r", schema);
  ASSERT_TRUE(s.Push(T(schema, "t", 1)).ok());
  EXPECT_TRUE(s.retained().empty());
}

TEST(StreamInsertOperatorTest, ForwardsIntoStream) {
  auto schema = TestSchema();
  Stream out("derived", schema);
  CollectOperator sink;
  out.Subscribe(&sink);
  StreamInsertOperator insert(&out);
  ASSERT_TRUE(insert.OnTuple(0, T(schema, "x", 5)).ok());
  EXPECT_EQ(sink.tuples().size(), 1u);
  EXPECT_EQ(out.tuples_pushed(), 1u);
}

// ---------------------------------------------------------------------------
// WindowBuffer
// ---------------------------------------------------------------------------

TEST(WindowBufferTest, TimeWindowInclusiveBound) {
  auto schema = TestSchema();
  WindowBuffer w(false, Seconds(10));
  w.Add(T(schema, "a", Seconds(0)));
  w.Add(T(schema, "b", Seconds(5)));
  w.Add(T(schema, "c", Seconds(10)));  // 0 is exactly 10s old: kept
  EXPECT_EQ(w.size(), 3u);
  w.Add(T(schema, "d", Seconds(11)));  // 0 is now 11s old: evicted
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.tuples().front().value(0).string_value(), "b");
}

TEST(WindowBufferTest, HeartbeatEviction) {
  auto schema = TestSchema();
  WindowBuffer w(false, Seconds(1));
  w.Add(T(schema, "a", Seconds(1)));
  EXPECT_EQ(w.size(), 1u);
  w.EvictAt(Seconds(3));
  EXPECT_TRUE(w.empty());
}

TEST(WindowBufferTest, RowWindow) {
  auto schema = TestSchema();
  WindowBuffer w(true, 3);
  for (int i = 0; i < 5; ++i) w.Add(T(schema, "t", i));
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.tuples().front().ts(), 2);
  // Time advance does not evict row windows.
  w.EvictAt(Seconds(100));
  EXPECT_EQ(w.size(), 3u);
}

TEST(WindowBufferTest, Clear) {
  auto schema = TestSchema();
  WindowBuffer w(false, Seconds(1));
  w.Add(T(schema, "a", 0));
  w.Clear();
  EXPECT_TRUE(w.empty());
}

// ---------------------------------------------------------------------------
// KeyedWindowBuffer
// ---------------------------------------------------------------------------

// Tags of the tuples a probe for `tag` visits, newest first, that
// actually carry that tag (other keys may share the bucket).
std::vector<Timestamp> Bucket(const KeyedWindowBuffer& w,
                              const std::string& tag) {
  std::vector<Timestamp> out;
  const Value key = Value::String(tag);
  w.ForEachInBucket(KeyedWindowBuffer::ProbeHash({&key}),
                    [&](const Tuple& t) {
                      if (t.value(0).string_value() == tag) {
                        out.push_back(t.ts());
                      }
                      return true;
                    });
  return out;
}

TEST(KeyedWindowBufferTest, ChainsSurviveEvictionAndResizing) {
  auto schema = TestSchema();
  KeyedWindowBuffer w(false, Seconds(10), {0});
  // 40 tags, two reads each, grow the head array from 1 to 64 buckets.
  for (int i = 0; i < 80; ++i) {
    w.Add(T(schema, "t" + std::to_string(i % 40), Seconds(i) / 10));
  }
  EXPECT_EQ(w.size(), 80u);
  EXPECT_EQ(w.bucket_count(), 128u);
  EXPECT_EQ(Bucket(w, "t3"), (std::vector<Timestamp>{Seconds(43) / 10,
                                                      Seconds(3) / 10}));
  // Evict the first 50 tuples: t3's older read leaves its chain.
  w.EvictAt(Seconds(10) + Seconds(49) / 10 + 1);
  EXPECT_EQ(w.size(), 30u);
  EXPECT_EQ(Bucket(w, "t3"), std::vector<Timestamp>{});
  EXPECT_EQ(Bucket(w, "t15"), (std::vector<Timestamp>{Seconds(55) / 10}));
  // Falling below a quarter of the heads shrinks the array to a load of
  // at most 1/2.
  EXPECT_EQ(w.bucket_count(), 64u);
  w.EvictAt(Seconds(10) + Seconds(75) / 10 + 1);
  EXPECT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bucket_count(), 8u);
  EXPECT_EQ(Bucket(w, "t39"), (std::vector<Timestamp>{Seconds(79) / 10}));
  EXPECT_EQ(Bucket(w, "t35"), std::vector<Timestamp>{});
}

TEST(KeyedWindowBufferTest, SqlEqualKeysShareABucket) {
  auto schema = Schema::Make({{"k", TypeId::kDouble}});
  KeyedWindowBuffer w(true, 100, {0});
  w.Add(*MakeTuple(schema, {Value::Double(5.0)}, 1));
  w.Add(*MakeTuple(schema, {Value::Double(-0.0)}, 2));
  size_t fives = 0;
  const Value five = Value::Int(5);
  w.ForEachInBucket(KeyedWindowBuffer::ProbeHash({&five}),
                    [&](const Tuple& t) {
                      fives += t.value(0).KeyEquals(Value::Int(5));
                      return true;
                    });
  EXPECT_EQ(fives, 1u);
  size_t zeros = 0;
  const Value zero = Value::Int(0);
  w.ForEachInBucket(KeyedWindowBuffer::ProbeHash({&zero}),
                    [&](const Tuple& t) {
                      zeros += t.value(0).KeyEquals(Value::Int(0));
                      return true;
                    });
  EXPECT_EQ(zeros, 1u);
}

TEST(KeyedWindowBufferTest, NoKeyColumnsIsOneBucketNewestFirst) {
  auto schema = TestSchema();
  KeyedWindowBuffer w(true, 3, {});
  for (int i = 0; i < 5; ++i) w.Add(T(schema, "t" + std::to_string(i), i));
  EXPECT_EQ(w.bucket_count(), 1u);
  std::vector<Timestamp> seen;
  w.ForEachInBucket(KeyedWindowBuffer::ProbeHash({}), [&](const Tuple& t) {
    seen.push_back(t.ts());
    return seen.size() < 2;  // stop early
  });
  EXPECT_EQ(seen, (std::vector<Timestamp>{4, 3}));
}

TEST(KeyedWindowBufferTest, AssignRebuildsChains) {
  auto schema = TestSchema();
  KeyedWindowBuffer w(false, Seconds(10), {0});
  w.Add(T(schema, "x", 1));
  std::deque<Tuple> restored = {T(schema, "a", 1), T(schema, "b", 2),
                                T(schema, "a", 3)};
  w.Assign(restored);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(Bucket(w, "a"), (std::vector<Timestamp>{3, 1}));
  EXPECT_EQ(Bucket(w, "x"), std::vector<Timestamp>{});
  w.Add(T(schema, "a", 4));
  EXPECT_EQ(Bucket(w, "a"), (std::vector<Timestamp>{4, 3, 1}));
}

}  // namespace
}  // namespace eslev
