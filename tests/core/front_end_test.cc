// The input front end (core/front_end.h) that Engine and the
// ShardedEngine coordinator share: one rule for a push into a query's
// output stream while ingest is on, one rule for an ingest port whose
// stream is gone, one rule for a repeated tick (live or after a
// recovery), and the same WAL bytes from both hosts.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "recovery/checkpoint.h"

namespace eslev {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "front_end_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

EngineOptions WithLateness() {
  EngineOptions options;
  options.ingest.lateness_bound = Milliseconds(400);
  return options;
}

template <typename Host>
std::unique_ptr<Host> MakeHost(size_t num_shards);

template <>
std::unique_ptr<Engine> MakeHost<Engine>(size_t) {
  return std::make_unique<Engine>(WithLateness());
}

template <>
std::unique_ptr<ShardedEngine> MakeHost<ShardedEngine>(size_t num_shards) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.engine = WithLateness();
  return std::make_unique<ShardedEngine>(options);
}

// The coordinator buffers emissions until they are drained.
void Settle(Engine&) {}
void Settle(ShardedEngine& host) {
  ASSERT_TRUE(host.Flush().ok());
  host.DrainOutputs();
}

std::vector<Value> Read(const std::string& tag, Timestamp ts) {
  return {Value::String("r"), Value::String(tag), Value::Time(ts)};
}

constexpr char kSourceDdl[] = "CREATE STREAM C1(readerid, tagid, tagtime);";

// ---- a push into a query's output stream -----------------------------------

template <typename Host>
std::vector<Timestamp> OutputStreamEmissions() {
  auto host = MakeHost<Host>(1);
  EXPECT_TRUE(host->ExecuteScript(R"sql(
    CREATE STREAM C1(readerid, tagid, tagtime);
    CREATE STREAM out(readerid, tagid, tagtime);
    INSERT INTO out SELECT * FROM C1;
  )sql")
                  .ok());
  std::vector<Timestamp> emitted;
  EXPECT_TRUE(
      host->Subscribe("out", [&](const Tuple& t) { emitted.push_back(t.ts()); })
          .ok());
  // The C1 read reaches `out` through the query; the direct push into
  // `out` is 100 ms newer. Both wait in the reorder stage until the tick.
  EXPECT_TRUE(host->Push("C1", Read("a", Milliseconds(9900)),
                         Milliseconds(9900))
                  .ok());
  EXPECT_TRUE(host->Push("out", Read("b", Seconds(10)), Seconds(10)).ok());
  EXPECT_TRUE(host->AdvanceTime(Seconds(11)).ok());
  Settle(*host);
  return emitted;
}

TEST(FrontEndTest, EnginePushIntoAQueryOutputStreamEntersIngest) {
  EXPECT_EQ(OutputStreamEmissions<Engine>(),
            (std::vector<Timestamp>{Milliseconds(9900), Seconds(10)}));
}

TEST(FrontEndTest, ShardedPushIntoAQueryOutputStreamEntersIngest) {
  EXPECT_EQ(OutputStreamEmissions<ShardedEngine>(),
            (std::vector<Timestamp>{Milliseconds(9900), Seconds(10)}));
}

// ---- a port whose stream is gone -------------------------------------------

// Registers `SELECT * FROM C1` (output `_q1`), gives both C1 and `_q1`
// an ingest port, ticks past both reads unless `leave_q1_buffered`, then
// unregisters the query, which drops `_q1`.
template <typename Host>
std::unique_ptr<Host> HostThatDroppedAPortedStream(bool leave_q1_buffered) {
  auto host = MakeHost<Host>(2);
  EXPECT_TRUE(host->ExecuteScript(kSourceDdl).ok());
  auto q = host->RegisterQuery("SELECT * FROM C1");
  EXPECT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->output_stream, "_q1");
  EXPECT_TRUE(host->Push("C1", Read("a", Seconds(1)), Seconds(1)).ok());
  EXPECT_TRUE(host->Push("_q1", Read("b", Seconds(2)), Seconds(2)).ok());
  if (!leave_q1_buffered) {
    EXPECT_TRUE(host->AdvanceTime(Seconds(5)).ok());
  }
  Settle(*host);
  EXPECT_TRUE(host->UnregisterQuery(q->id).ok());
  return host;
}

// A fresh host with the surviving topology: the DDL, and query ids
// continuing after the dropped one.
template <typename Host>
std::unique_ptr<Host> RebuiltHost() {
  auto host = MakeHost<Host>(2);
  EXPECT_TRUE(host->ExecuteScript(kSourceDdl).ok());
  EXPECT_TRUE(host->SetNextQueryId(2).ok());
  return host;
}

template <typename Host>
void ExpectRestoreLeavesTheDroppedPortUnbound(const std::string& name) {
  const std::string dir = FreshDir(name);
  {
    auto host = HostThatDroppedAPortedStream<Host>(false);
    ASSERT_TRUE(host->Checkpoint(dir).ok());
  }
  auto host = RebuiltHost<Host>();
  ASSERT_TRUE(host->Restore(dir).ok());
  auto q = host->RegisterQuery("SELECT tagid FROM C1");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Timestamp> emitted;
  ASSERT_TRUE(host->Subscribe(q->output_stream, [&](const Tuple& t) {
                    emitted.push_back(t.ts());
                  }).ok());
  // C1 keeps its restored port.
  ASSERT_TRUE(host->Push("C1", Read("c", Seconds(6)), Seconds(6)).ok());
  ASSERT_TRUE(host->AdvanceTime(Seconds(8)).ok());
  Settle(*host);
  EXPECT_EQ(emitted, std::vector<Timestamp>{Seconds(6)});
}

TEST(FrontEndTest, EngineRestoresIngestStateNamingADroppedStream) {
  ExpectRestoreLeavesTheDroppedPortUnbound<Engine>("engine_restore");
}

TEST(FrontEndTest, ShardedRestoresIngestStateNamingADroppedStream) {
  ExpectRestoreLeavesTheDroppedPortUnbound<ShardedEngine>("sharded_restore");
}

template <typename Host>
void ExpectReleaseOnTheDroppedPortFails(const std::string& name) {
  {
    auto host = HostThatDroppedAPortedStream<Host>(true);
    EXPECT_FALSE(host->AdvanceTime(Seconds(5)).ok());
  }
  const std::string dir = FreshDir(name);
  {
    auto host = HostThatDroppedAPortedStream<Host>(true);
    ASSERT_TRUE(host->Checkpoint(dir).ok());
  }
  auto host = RebuiltHost<Host>();
  ASSERT_TRUE(host->Restore(dir).ok());
  EXPECT_FALSE(host->AdvanceTime(Seconds(5)).ok());
}

TEST(FrontEndTest, EngineReleaseOnADroppedStreamsPortIsAnError) {
  ExpectReleaseOnTheDroppedPortFails<Engine>("engine_release");
}

TEST(FrontEndTest, ShardedReleaseOnADroppedStreamsPortIsAnError) {
  ExpectReleaseOnTheDroppedPortFails<ShardedEngine>("sharded_release");
}

// ---- a repeated tick -------------------------------------------------------

struct RepeatedTickRun {
  std::vector<std::vector<std::string>> rows;  // per query, in order
  std::string wal;
};

// Rounds of tick(T), tuple(T), tick(T) through a windowed SEQ, an
// EXCEPTION_SEQ deadline and a windowed NOT EXISTS with a FOLLOWING side.
template <typename Host>
RepeatedTickRun RunRepeatedTicks(const std::string& name) {
  const std::string dir = FreshDir(name);
  std::filesystem::create_directories(dir);
  RepeatedTickRun run;
  {
    auto host = MakeHost<Host>(1);
    EXPECT_TRUE(host->ExecuteScript(
                        "CREATE STREAM C1(readerid, tagid, tagtime);"
                        "CREATE STREAM C2(readerid, tagid, tagtime);")
                    .ok());
    const std::vector<std::string> queries = {
        "SELECT C2.tagid FROM C1, C2 WHERE SEQ(C1, C2) OVER [2 SECONDS "
        "PRECEDING C2] AND C1.tagid = C2.tagid",
        "SELECT C1.tagid FROM C1, C2 WHERE EXCEPTION_SEQ(C1, C2) OVER "
        "[2 SECONDS FOLLOWING C1] AND C1.tagid = C2.tagid",
        "SELECT * FROM C1 AS a WHERE NOT EXISTS (SELECT * FROM C2 AS b OVER "
        "[1 SECONDS PRECEDING AND FOLLOWING a] WHERE b.tagid = a.tagid)"};
    run.rows.resize(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      auto info = host->RegisterQuery(queries[q]);
      EXPECT_TRUE(info.ok()) << info.status();
      if (!info.ok()) return run;
      EXPECT_TRUE(host->Subscribe(info->output_stream,
                                  [&run, q](const Tuple& t) {
                                    run.rows[q].push_back(t.ToString());
                                  })
                      .ok());
    }
    EXPECT_TRUE(host->EnableWal(dir + "/" + kWalFileName).ok());
    for (int k = 1; k <= 8; ++k) {
      const Timestamp t = Seconds(k);
      const std::string tag = "tag" + std::to_string(k % 3);
      EXPECT_TRUE(host->AdvanceTime(t).ok());
      EXPECT_TRUE(host->Push("C1", Read(tag, t), t).ok());
      EXPECT_TRUE(host->AdvanceTime(t).ok());
      if (k % 2 == 0) {
        const Timestamp later = t + Milliseconds(500);
        const std::string prior = "tag" + std::to_string((k - 1) % 3);
        EXPECT_TRUE(host->Push("C2", Read(prior, later), later).ok());
        EXPECT_TRUE(host->AdvanceTime(later).ok());
        EXPECT_TRUE(host->AdvanceTime(later).ok());
      }
    }
    EXPECT_TRUE(host->AdvanceTime(Seconds(30)).ok());
    Settle(*host);
  }
  auto wal = ReadFileAll(dir + "/" + kWalFileName);
  EXPECT_TRUE(wal.ok()) << wal.status();
  if (wal.ok()) run.wal = *wal;
  return run;
}

TEST(FrontEndTest, RepeatedTickIsDroppedAlikeOnBothHosts) {
  const RepeatedTickRun engine = RunRepeatedTicks<Engine>("repeat_engine");
  const RepeatedTickRun sharded =
      RunRepeatedTicks<ShardedEngine>("repeat_sharded");
  ASSERT_EQ(engine.rows.size(), 3u);
  for (size_t q = 0; q < engine.rows.size(); ++q) {
    EXPECT_FALSE(engine.rows[q].empty()) << "query " << q;
    EXPECT_EQ(engine.rows[q], sharded.rows[q]) << "query " << q;
  }
  // Neither host logs the repeat, so the WALs match byte for byte.
  EXPECT_EQ(engine.wal.size(), sharded.wal.size());
  EXPECT_TRUE(engine.wal == sharded.wal);
}

uint64_t WalAppends(Engine& host) {
  return host.Metrics().counters.at("wal.records_appended");
}
uint64_t WalAppends(ShardedEngine& host) {
  auto metrics = host.Metrics();
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  return metrics.ok() ? metrics->counters.at("sharded.wal.records_appended")
                      : 0;
}

struct RecoveredTickRun {
  uint64_t repeat_appends = 0;
  std::string wal;
};

// Checkpoint, log a tick at 5 s, crash, recover (replaying that tick),
// then tick 5 s again.
template <typename Host>
RecoveredTickRun RepeatLastReplayedTick(const std::string& name) {
  const std::string dir = FreshDir(name);
  std::filesystem::create_directories(dir);
  {
    auto host = MakeHost<Host>(1);
    EXPECT_TRUE(host->ExecuteScript(kSourceDdl).ok());
    EXPECT_TRUE(host->Checkpoint(dir).ok());
    EXPECT_TRUE(host->EnableWal(dir + "/" + kWalFileName).ok());
    EXPECT_TRUE(host->AdvanceTime(Seconds(5)).ok());
  }
  RecoveredTickRun run;
  {
    auto host = MakeHost<Host>(1);
    EXPECT_TRUE(host->ExecuteScript(kSourceDdl).ok());
    const Status recovered = host->RecoverFrom(dir);
    EXPECT_TRUE(recovered.ok()) << recovered;
    const uint64_t before = WalAppends(*host);
    EXPECT_TRUE(host->AdvanceTime(Seconds(5)).ok());
    run.repeat_appends = WalAppends(*host) - before;
  }
  auto wal = ReadFileAll(dir + "/" + kWalFileName);
  EXPECT_TRUE(wal.ok()) << wal.status();
  if (wal.ok()) run.wal = *wal;
  return run;
}

TEST(FrontEndTest, RecoveredHostsDropARepeatOfTheLastReplayedTick) {
  const RecoveredTickRun engine =
      RepeatLastReplayedTick<Engine>("recovered_engine");
  const RecoveredTickRun sharded =
      RepeatLastReplayedTick<ShardedEngine>("recovered_sharded");
  EXPECT_EQ(engine.repeat_appends, 0u);
  EXPECT_EQ(sharded.repeat_appends, 0u);
  EXPECT_FALSE(engine.wal.empty());
  EXPECT_TRUE(engine.wal == sharded.wal);
}

// ---- the same WAL from both hosts ------------------------------------------

// 2,000 reads 5 ms apart, each arriving up to 300 ms late (inside the
// 400 ms bound), ticking the newest timestamp twice every 64 reads.
template <typename Host>
void FeedDisorderedTrace(Host& host) {
  struct Arrival {
    Timestamp arrives;
    Timestamp ts;
    int tag;
  };
  std::mt19937 rng(7);
  std::uniform_int_distribution<Duration> delay(0, Milliseconds(300));
  std::uniform_int_distribution<int> tag(0, 19);
  std::vector<Arrival> trace;
  for (int i = 0; i < 2000; ++i) {
    const Timestamp ts = Seconds(1) + i * Milliseconds(5);
    trace.push_back({ts + delay(rng), ts, tag(rng)});
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.arrives < b.arrives;
                   });
  Timestamp newest = kMinTimestamp;
  for (size_t i = 0; i < trace.size(); ++i) {
    const Arrival& a = trace[i];
    ASSERT_TRUE(host.Push("readings",
                          Read("tag" + std::to_string(a.tag), a.ts), a.ts)
                    .ok());
    newest = std::max(newest, a.ts);
    if ((i + 1) % 64 == 0) {
      ASSERT_TRUE(host.AdvanceTime(newest).ok());
      ASSERT_TRUE(host.AdvanceTime(newest).ok());
    }
  }
}

TEST(FrontEndTest, EngineAndOneShardHostWriteByteIdenticalWals) {
  EngineOptions options;
  options.ingest.lateness_bound = Milliseconds(400);
  options.ingest.smoothing_window = Milliseconds(1);
  options.ingest.min_read_count = 2;
  const std::string ddl =
      "CREATE STREAM readings(reader_id, tag_id, read_time);"
      "SELECT tag_id FROM readings;";
  const std::string engine_dir = FreshDir("wal_engine");
  const std::string sharded_dir = FreshDir("wal_sharded");
  std::filesystem::create_directories(engine_dir);
  std::filesystem::create_directories(sharded_dir);
  {
    Engine engine(options);
    ASSERT_TRUE(engine.ExecuteScript(ddl).ok());
    ASSERT_TRUE(engine.EnableWal(engine_dir + "/" + kWalFileName).ok());
    FeedDisorderedTrace(engine);
  }
  {
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = 1;
    sharded_options.engine = options;
    ShardedEngine sharded(sharded_options);
    ASSERT_TRUE(sharded.ExecuteScript(ddl).ok());
    ASSERT_TRUE(sharded.EnableWal(sharded_dir + "/" + kWalFileName).ok());
    FeedDisorderedTrace(sharded);
    ASSERT_TRUE(sharded.Flush().ok());
  }
  auto engine_wal = ReadFileAll(engine_dir + "/" + kWalFileName);
  auto sharded_wal = ReadFileAll(sharded_dir + "/" + kWalFileName);
  ASSERT_TRUE(engine_wal.ok() && sharded_wal.ok());
  EXPECT_GT(engine_wal->size(), 2000u * 64);
  EXPECT_EQ(engine_wal->size(), sharded_wal->size());
  EXPECT_TRUE(*engine_wal == *sharded_wal);
}

}  // namespace
}  // namespace eslev
