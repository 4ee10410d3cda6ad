// Route batching (DESIGN.md §8): ShardedEngine may carry a run of
// same-stream tuples bound for one shard as a single queue item. That
// must be observationally identical to enqueueing them one by one — same
// emissions in the same drain order — while the sharded.batch.* metrics
// expose what the routing layer actually did.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/sharded_engine.h"
#include "replication/replicated_engine.h"

namespace eslev {
namespace {

constexpr char kDedupScript[] = R"sql(
  CREATE STREAM readings(reader_id, tag_id, read_time);
  CREATE STREAM cleaned(reader_id, tag_id, read_time);
  INSERT INTO cleaned
  SELECT * FROM readings AS r1
  WHERE NOT EXISTS
    (SELECT * FROM TABLE( readings OVER
        (RANGE 1 seconds PRECEDING CURRENT)) AS r2
     WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);
)sql";

ShardedEngineOptions RouteOptions(size_t num_shards, size_t route_batch_size) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.route_batch_size = route_batch_size;
  return options;
}

Status PushReading(ShardedEngine& engine, const std::string& tag,
                   Timestamp ts) {
  return engine.Push("readings",
                     {Value::String("r1"), Value::String(tag), Value::Time(ts)},
                     ts);
}

// Feed the dedup pipeline a fixed trace and collect emissions in drain
// order.
std::vector<std::string> RunDedup(size_t route_batch_size) {
  ShardedEngine engine(RouteOptions(2, route_batch_size));
  EXPECT_TRUE(engine.ExecuteScript(kDedupScript).ok());
  std::vector<std::string> rows;
  EXPECT_TRUE(engine
                  .Subscribe("cleaned",
                             [&](const Tuple& t) { rows.push_back(t.ToString()); })
                  .ok());
  int sec = 1;
  for (int round = 0; round < 10; ++round) {
    for (const char* tag : {"a", "b", "a", "c", "b", "a"}) {
      EXPECT_TRUE(PushReading(engine, tag, Seconds(sec)).ok());
      sec += (round % 3 == 0) ? 1 : 0;  // mix duplicates and fresh reads
    }
    ++sec;
  }
  EXPECT_TRUE(engine.AdvanceTime(Seconds(sec + 60)).ok());
  EXPECT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  return rows;
}

TEST(BatchPipelineTest, DedupByteIdenticalAcrossBatchSizes) {
  const std::vector<std::string> reference = RunDedup(1);
  ASSERT_FALSE(reference.empty());
  for (size_t route_batch_size : {2u, 3u, 7u, 64u, 1024u}) {
    EXPECT_EQ(RunDedup(route_batch_size), reference)
        << "divergence at route_batch_size=" << route_batch_size;
  }
}

TEST(BatchPipelineTest, PendingBatchFlushesOnHeartbeat) {
  ShardedEngine engine(RouteOptions(1, 8));
  ASSERT_TRUE(engine.ExecuteScript(kDedupScript).ok());
  std::vector<Timestamp> emitted;
  ASSERT_TRUE(
      engine.Subscribe("cleaned", [&](const Tuple& t) { emitted.push_back(t.ts()); })
          .ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        PushReading(engine, "t" + std::to_string(i), Seconds(i + 1)).ok());
  }
  // Below the route size: held at the router, never enqueued.
  EXPECT_EQ(engine.DrainOutputs(), 0u);
  // The heartbeat enqueues the pending run ahead of the tick, so the
  // shard sees the tuples first and none is clamped forward to 10s.
  ASSERT_TRUE(engine.AdvanceTime(Seconds(10)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  EXPECT_EQ(emitted,
            (std::vector<Timestamp>{Seconds(1), Seconds(2), Seconds(3)}));
}

TEST(BatchPipelineTest, ExplicitFlushDeliversPendingBatch) {
  ShardedEngine engine(RouteOptions(1, 100));
  ASSERT_TRUE(engine.ExecuteScript(kDedupScript).ok());
  size_t emitted = 0;
  ASSERT_TRUE(
      engine.Subscribe("cleaned", [&](const Tuple&) { ++emitted; }).ok());
  ASSERT_TRUE(PushReading(engine, "x", Seconds(1)).ok());
  EXPECT_EQ(engine.DrainOutputs(), 0u);
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.DrainOutputs(), 1u);
  EXPECT_EQ(emitted, 1u);
}

TEST(BatchPipelineTest, StreamSwitchIsABatchBoundary) {
  ShardedEngine engine(RouteOptions(1, 100));
  ASSERT_TRUE(engine.ExecuteScript(R"sql(
    CREATE STREAM a(v, t_time);
    CREATE STREAM b(v, t_time);
  )sql")
                  .ok());
  auto q = engine.RegisterQuery(
      "SELECT a.v, b.v FROM a, b WHERE SEQ(a, b) MODE CHRONICLE");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<std::string> rows;
  ASSERT_TRUE(engine
                  .Subscribe(q->output_stream,
                             [&](const Tuple& t) { rows.push_back(t.ToString()); })
                  .ok());
  int sec = 1;
  for (const char* stream : {"a", "b", "a", "b"}) {
    ASSERT_TRUE(engine
                    .Push(stream,
                          {Value::String(std::to_string(sec)),
                           Value::Time(Seconds(sec))},
                          Seconds(sec))
                    .ok());
    ++sec;
  }
  ASSERT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  // Each switch closed the previous run, so the shard saw the joint
  // history in arrival order and paired every a with the next b.
  ASSERT_EQ(rows.size(), 2u);
  auto snap = engine.Metrics();
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->counters.at("sharded.batch.batches_enqueued"), 4u);
  EXPECT_EQ(snap->counters.at("sharded.batch.tuples_batched"), 4u);
}

TEST(BatchPipelineTest, BatchMetricsAndAnalyzeCounters) {
  ShardedEngine engine(RouteOptions(1, 4));
  ASSERT_TRUE(engine.ExecuteScript(R"sql(
    CREATE STREAM readings(reader_id, tid, read_time);
  )sql")
                  .ok());
  const std::string sql =
      "SELECT reader_id, tid FROM readings WHERE tid = 'keep'";
  auto q = engine.RegisterQuery(sql);
  ASSERT_TRUE(q.ok()) << q.status();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine
                    .Push("readings",
                          {Value::String("r"), Value::String(i % 2 ? "keep" : "drop"),
                           Value::Time(Seconds(i + 1))},
                          Seconds(i + 1))
                    .ok());
  }
  ASSERT_TRUE(engine.Flush().ok());

  auto snap = engine.Metrics();
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->gauges.at("sharded.batch.route_batch_size"), 4);
  EXPECT_EQ(snap->counters.at("sharded.batch.batches_enqueued"), 2u);
  EXPECT_EQ(snap->counters.at("sharded.batch.tuples_batched"), 8u);
  EXPECT_EQ(snap->gauges.at("sharded.batch.pending"), 0);

  // The shard's operators saw every tuple of both route batches.
  auto analyzed = engine.Explain("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_NE(analyzed->find("tuples_in=8 tuples_out=4"), std::string::npos)
      << *analyzed;
}

TEST(BatchPipelineTest, TupleModeAnalyzeOmitsBatchCounters) {
  ShardedEngine engine(RouteOptions(1, 1));
  ASSERT_TRUE(engine.ExecuteScript(R"sql(
    CREATE STREAM readings(reader_id, tid, read_time);
  )sql")
                  .ok());
  const std::string sql = "SELECT reader_id FROM readings";
  auto q = engine.RegisterQuery(sql);
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(engine
                  .Push("readings",
                        {Value::String("r"), Value::String("t"),
                         Value::Time(Seconds(1))},
                        Seconds(1))
                  .ok());
  ASSERT_TRUE(engine.Flush().ok());
  auto snap = engine.Metrics();
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->gauges.at("sharded.batch.route_batch_size"), 1);
  EXPECT_EQ(snap->counters.at("sharded.batch.batches_enqueued"), 0u);
  auto analyzed = engine.Explain("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_NE(analyzed->find("tuples_in=1"), std::string::npos) << *analyzed;
  EXPECT_EQ(analyzed->find("batch"), std::string::npos) << *analyzed;
}

TEST(BatchPipelineTest, InvalidConfiguredSizeRejected) {
  for (size_t bad : {size_t{0}, kMaxRouteBatchSize + 1}) {
    ShardedEngine engine(RouteOptions(2, bad));
    Status st = engine.ExecuteScript("CREATE STREAM s(v, t_time);");
    EXPECT_FALSE(st.ok()) << "accepted route_batch_size=" << bad;
    EXPECT_NE(st.message().find("route_batch_size"), std::string::npos) << st;

    ReplicatedShardedEngineOptions replicated;
    replicated.num_shards = 2;
    replicated.route_batch_size = bad;
    replicated.dir = ::testing::TempDir() + "batch_pipeline_invalid";
    std::filesystem::remove_all(replicated.dir);
    EXPECT_FALSE(ReplicatedShardedEngine::Open(replicated).ok())
        << "accepted route_batch_size=" << bad;
    std::filesystem::remove_all(replicated.dir);
  }
  ShardedEngine largest(RouteOptions(2, kMaxRouteBatchSize));
  EXPECT_TRUE(largest.ExecuteScript("CREATE STREAM s(v, t_time);").ok());
}

}  // namespace
}  // namespace eslev
