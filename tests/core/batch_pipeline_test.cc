// Mailbox batching (DESIGN.md §8): a tuple routed to a ShardedEngine
// shard is queued without waking its worker. The worker takes its whole
// backlog when a boundary wakes it — a heartbeat, a worker command,
// Flush(), DrainOutputs() — or once 64 items wait. These tests pin which
// calls wake a worker through the `sharded.shard<i>.wakeups` counter,
// not through timing: Metrics() reads it (and `queue_depth`) before its
// own round trip through every shard, and a Flush() right after leaves
// every worker asleep on an empty mailbox.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_engine.h"

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

ShardedEngineOptions Shards(size_t num_shards) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  return options;
}

Status PushReading(ShardedEngine& engine, const std::string& tag,
                   Timestamp ts) {
  return engine.Push("readings",
                     {Value::String("r1"), Value::String(tag), Value::Time(ts)},
                     ts);
}

std::string ShardKey(size_t shard, const std::string& stat) {
  return "sharded.shard" + std::to_string(shard) + "." + stat;
}

/// Each shard's wake-up count, read before the snapshot's own round
/// trip wakes every shard once.
std::vector<uint64_t> Wakeups(ShardedEngine& engine) {
  auto snap = engine.Metrics();
  EXPECT_TRUE(snap.ok()) << snap.status();
  std::vector<uint64_t> counts(engine.num_shards(), 0);
  if (!snap.ok()) return counts;
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = snap->counters.at(ShardKey(i, "wakeups"));
  }
  return counts;
}

/// Leave every worker asleep on an empty mailbox; returns each shard's
/// wake-up count at that point.
std::vector<uint64_t> SleepAll(ShardedEngine& engine) {
  EXPECT_TRUE(engine.Flush().ok());
  std::vector<uint64_t> counts = Wakeups(engine);
  for (uint64_t& c : counts) ++c;  // the snapshot's round trip
  EXPECT_TRUE(engine.Flush().ok());
  return counts;
}

/// Example 1's dedup on `engine`; emission timestamps land in `ts`.
void SetUpDedup(ShardedEngine& engine, std::vector<Timestamp>* ts) {
  ASSERT_TRUE(engine.ExecuteScript(kDedupScript).ok());
  ASSERT_TRUE(
      engine.Subscribe("cleaned", [ts](const Tuple& t) { ts->push_back(t.ts()); })
          .ok());
}

// Feed the dedup pipeline a fixed trace, flushing after every
// `flush_every` reads, and collect emissions in drain order.
std::vector<std::string> RunDedup(size_t flush_every) {
  ShardedEngine engine(Shards(2));
  EXPECT_TRUE(engine.ExecuteScript(kDedupScript).ok());
  std::vector<std::string> rows;
  EXPECT_TRUE(engine
                  .Subscribe("cleaned",
                             [&](const Tuple& t) { rows.push_back(t.ToString()); })
                  .ok());
  int sec = 1;
  size_t pushed = 0;
  for (int round = 0; round < 40; ++round) {
    for (const char* tag : {"a", "b", "a", "c", "b", "a"}) {
      EXPECT_TRUE(PushReading(engine, tag, Seconds(sec)).ok());
      if (++pushed % flush_every == 0) {
        EXPECT_TRUE(engine.Flush().ok());
      }
      sec += (round % 3 == 0) ? 1 : 0;  // mix duplicates and fresh reads
    }
    ++sec;
  }
  EXPECT_TRUE(engine.AdvanceTime(Seconds(sec + 60)).ok());
  EXPECT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  return rows;
}

// How many tuples one wake-up carries (one per flush, up to the 64-item
// wake, or everything the rule alone wakes for) never changes a byte.
TEST(BatchPipelineTest, DedupByteIdenticalAcrossBatchSizes) {
  const std::vector<std::string> reference = RunDedup(1);
  ASSERT_FALSE(reference.empty());
  for (size_t flush_every : {2u, 3u, 7u, 63u, 64u, 65u, 1024u}) {
    EXPECT_EQ(RunDedup(flush_every), reference)
        << "divergence at flush_every=" << flush_every;
  }
}

TEST(BatchPipelineTest, PendingBatchFlushesOnHeartbeat) {
  ShardedEngine engine(Shards(1));
  std::vector<Timestamp> emitted;
  SetUpDedup(engine, &emitted);
  const std::vector<uint64_t> asleep = SleepAll(engine);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        PushReading(engine, "t" + std::to_string(i), Seconds(i + 1)).ok());
  }
  // The heartbeat is a control item: it wakes the worker, which takes
  // the tuples queued ahead of it first, so none is clamped to 10 s.
  ASSERT_TRUE(engine.AdvanceTime(Seconds(10)).ok());
  EXPECT_EQ(Wakeups(engine)[0], asleep[0] + 1);
  ASSERT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  EXPECT_EQ(emitted,
            (std::vector<Timestamp>{Seconds(1), Seconds(2), Seconds(3)}));
}

TEST(BatchPipelineTest, ExplicitFlushDeliversPendingBatch) {
  ShardedEngine engine(Shards(1));
  std::vector<Timestamp> emitted;
  SetUpDedup(engine, &emitted);
  const std::vector<uint64_t> asleep = SleepAll(engine);
  ASSERT_TRUE(PushReading(engine, "x", Seconds(1)).ok());
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(engine.DrainOutputs(), 1u);
  EXPECT_EQ(emitted, std::vector<Timestamp>{Seconds(1)});
  EXPECT_EQ(Wakeups(engine)[0], asleep[0] + 1);
}

// A worker command queues behind the tuples, so it sees them applied.
TEST(BatchPipelineTest, WorkerCommandDeliversPendingBatch) {
  ShardedEngine engine(Shards(1));
  std::vector<Timestamp> emitted;
  SetUpDedup(engine, &emitted);
  const std::vector<uint64_t> asleep = SleepAll(engine);
  ASSERT_TRUE(PushReading(engine, "x", Seconds(7)).ok());
  auto clocks = engine.shard_clocks();
  ASSERT_TRUE(clocks.ok()) << clocks.status();
  EXPECT_EQ((*clocks)[0], Seconds(7));
  EXPECT_EQ(Wakeups(engine)[0], asleep[0] + 1);
}

// DrainOutputs wakes the workers first, so what they emit arrives at a
// later drain with no other boundary in between.
TEST(BatchPipelineTest, DrainOutputsDeliversPendingBatchAtTheNextDrain) {
  ShardedEngine engine(Shards(2));
  std::vector<Timestamp> emitted;
  SetUpDedup(engine, &emitted);
  const std::vector<uint64_t> asleep = SleepAll(engine);
  ASSERT_TRUE(PushReading(engine, "x", Seconds(1)).ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  size_t drained = engine.DrainOutputs();
  while (drained == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    drained += engine.DrainOutputs();
  }
  EXPECT_EQ(drained, 1u) << "no drain delivered the queued read";
  const std::vector<uint64_t> now = Wakeups(engine);
  // Only the shard that holds the read had something to wake for.
  EXPECT_EQ(now[0] + now[1], asleep[0] + asleep[1] + 1);
}

// queue_depth is read before Metrics() wakes the shards, so it shows the
// reads queued without a wake-up, on the shard they were routed to.
TEST(BatchPipelineTest, QueueDepthShowsUnwokenBacklog) {
  ShardedEngine engine(Shards(2));
  std::vector<Timestamp> emitted;
  SetUpDedup(engine, &emitted);
  ASSERT_TRUE(engine.Flush().ok());
  const std::vector<uint64_t> routed_before = engine.shard_tuple_counts();
  constexpr int kQueued = 5;
  for (int i = 0; i < kQueued; ++i) {
    ASSERT_TRUE(PushReading(engine, "same-tag", Seconds(i + 1)).ok());
  }
  const std::vector<uint64_t> routed = engine.shard_tuple_counts();
  const size_t shard = routed[0] > routed_before[0] ? 0 : 1;
  auto snap = engine.Metrics();
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->gauges.at(ShardKey(shard, "queue_depth")), kQueued);
  EXPECT_EQ(snap->gauges.at(ShardKey(1 - shard, "queue_depth")), 0);
  // The snapshot's round trip processed them.
  snap = engine.Metrics();
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->gauges.at(ShardKey(shard, "queue_depth")), 0);
}

// With no boundary at all, the 64th queued item wakes the worker.
TEST(BatchPipelineTest, SixtyFourthQueuedTupleWakesTheWorker) {
  ShardedEngine engine(Shards(1));
  std::vector<Timestamp> emitted;
  SetUpDedup(engine, &emitted);
  std::vector<uint64_t> asleep = SleepAll(engine);
  for (int i = 0; i < 63; ++i) {
    ASSERT_TRUE(PushReading(engine, "t" + std::to_string(i), Seconds(1)).ok());
  }
  EXPECT_EQ(Wakeups(engine)[0], asleep[0]);
  asleep = SleepAll(engine);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(PushReading(engine, "u" + std::to_string(i), Seconds(2)).ok());
  }
  EXPECT_EQ(Wakeups(engine)[0], asleep[0] + 1);
}

// One backlog holds items of every stream in arrival order, so the
// shard sees the joint history as pushed.
TEST(BatchPipelineTest, MixedStreamBacklogKeepsArrivalOrder) {
  ShardedEngine engine(Shards(1));
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
  const std::vector<uint64_t> asleep = SleepAll(engine);
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
  // CHRONICLE paired every a with the next b.
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(Wakeups(engine)[0], asleep[0] + 1);
}

TEST(BatchPipelineTest, BatchMetricsAndAnalyzeCounters) {
  ShardedEngine engine(Shards(1));
  ASSERT_TRUE(engine.ExecuteScript(R"sql(
    CREATE STREAM readings(reader_id, tid, read_time);
  )sql")
                  .ok());
  const std::string sql =
      "SELECT reader_id, tid FROM readings WHERE tid = 'keep'";
  auto q = engine.RegisterQuery(sql);
  ASSERT_TRUE(q.ok()) << q.status();
  const std::vector<uint64_t> asleep = SleepAll(engine);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine
                    .Push("readings",
                          {Value::String("r"), Value::String(i % 2 ? "keep" : "drop"),
                           Value::Time(Seconds(i + 1))},
                          Seconds(i + 1))
                    .ok());
  }
  auto snap = engine.Metrics();
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->gauges.at("sharded.shard0.queue_depth"), 8);
  EXPECT_EQ(snap->counters.at("sharded.shard0.wakeups"), asleep[0]);
  EXPECT_EQ(snap->counters.at("sharded.shard0.tuples_routed"), 8u);
  // The mailbox is the one batching point: no routing-layer batch family.
  for (const auto& [key, value] : snap->counters) {
    EXPECT_NE(key.rfind("sharded.batch.", 0), 0u) << key;
  }
  for (const auto& [key, value] : snap->gauges) {
    EXPECT_NE(key.rfind("sharded.batch.", 0), 0u) << key;
  }

  // The shard's operators saw every queued tuple, one at a time: the
  // plan reports no batch counters.
  auto analyzed = engine.Explain("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  EXPECT_NE(analyzed->find("tuples_in=8 tuples_out=4"), std::string::npos)
      << *analyzed;
  EXPECT_EQ(analyzed->find("batch"), std::string::npos) << *analyzed;
}

}  // namespace
}  // namespace eslev
