// Route-batching differential sweep (DESIGN.md §8): on seeded random
// traces, ShardedEngine at 1/2/4 shards must emit the single-engine
// output, and at every route batch size — 7, 64, 1024 — exactly the
// drain sequence it emits at route size 1, across dedup, SEQ pairing
// modes, windows, and trailing stars. The same holds for a crash with
// tuples still in a pending route batch: the WAL is written before
// buffering, so recovery at another route size regenerates them. Every
// seeded run draws the ingest reorder stage's lateness bound from
// {0, 400 ms}, which must not change a byte either.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "recovery/checkpoint.h"
#include "tests/property/lateness_draw.h"

namespace eslev {
namespace {

const size_t kRouteBatchSizes[] = {1, 7, 64, 1024};

struct Event {
  std::string stream;
  std::string tag;
  Timestamp ts;
};

std::vector<Event> MakeTrace(uint32_t seed, size_t num_events,
                             const std::vector<std::string>& streams,
                             int num_tags) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> pick_stream(0, streams.size() - 1);
  std::uniform_int_distribution<int> pick_tag(0, num_tags - 1);
  std::uniform_int_distribution<Duration> step(Milliseconds(50), Seconds(2));
  std::vector<Event> events;
  Timestamp now = Seconds(1);
  for (size_t i = 0; i < num_events; ++i) {
    events.push_back({streams[pick_stream(rng)],
                      "tag" + std::to_string(pick_tag(rng)), now});
    now += step(rng);
  }
  return events;
}

struct Scenario {
  std::string ddl;
  std::string query;
  std::vector<std::string> streams;
  std::vector<std::string> single_shard_streams;  // empty: partitioned
};

template <typename EngineT>
void PushEvent(EngineT& engine, const Event& e) {
  ASSERT_TRUE(engine
                  .Push(e.stream,
                        {Value::String("r"), Value::String(e.tag),
                         Value::Time(e.ts)},
                        e.ts)
                  .ok());
}

// Sorted: a sharded run emits the same set, merged across shards.
std::vector<std::string> RunSingle(const Scenario& scenario,
                                   const std::vector<Event>& events,
                                   Duration lateness_bound) {
  Engine engine(IngestOptionsWith(lateness_bound));
  EXPECT_TRUE(engine.ExecuteScript(scenario.ddl).ok());
  auto q = engine.RegisterQuery(scenario.query);
  EXPECT_TRUE(q.ok()) << q.status();
  std::vector<std::string> rows;
  EXPECT_TRUE(
      engine
          .Subscribe(q->output_stream,
                     [&](const Tuple& t) { rows.push_back(t.ToString()); })
          .ok());
  for (const Event& e : events) PushEvent(engine, e);
  EXPECT_TRUE(engine.AdvanceTime(events.back().ts + Minutes(10)).ok());
  std::sort(rows.begin(), rows.end());
  return rows;
}

ShardedEngineOptions RouteOptions(size_t num_shards, size_t route_batch_size,
                                  Duration lateness_bound) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.route_batch_size = route_batch_size;
  options.engine = IngestOptionsWith(lateness_bound);
  return options;
}

// Unsorted: the drain order of one shard count does not depend on the
// route batch size.
std::vector<std::string> RunSharded(const Scenario& scenario,
                                    const std::vector<Event>& events,
                                    size_t num_shards,
                                    size_t route_batch_size,
                                    Duration lateness_bound) {
  ShardedEngine engine(
      RouteOptions(num_shards, route_batch_size, lateness_bound));
  EXPECT_TRUE(engine.ExecuteScript(scenario.ddl).ok());
  auto q = engine.RegisterQuery(scenario.query);
  EXPECT_TRUE(q.ok()) << q.status();
  for (const std::string& s : scenario.single_shard_streams) {
    EXPECT_TRUE(engine.SetSingleShard(s).ok());
  }
  std::vector<std::string> rows;
  EXPECT_TRUE(
      engine
          .Subscribe(q->output_stream,
                     [&](const Tuple& t) { rows.push_back(t.ToString()); })
          .ok());
  for (const Event& e : events) PushEvent(engine, e);
  EXPECT_TRUE(engine.AdvanceTime(events.back().ts + Minutes(10)).ok());
  EXPECT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  return rows;
}

void ExpectBatchEquivalence(const Scenario& scenario, uint32_t seed,
                            size_t num_events, int num_tags) {
  const auto events = MakeTrace(seed, num_events, scenario.streams, num_tags);
  const Duration lateness_bound = LatenessBoundFor(seed);
  const auto reference = RunSingle(scenario, events, lateness_bound);
  std::mt19937 rng(seed * 2246822519u + 3);
  for (size_t shards : {1u, 2u, 4u}) {
    const auto unbatched =
        RunSharded(scenario, events, shards, 1, lateness_bound);
    auto sorted = unbatched;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, reference) << "seed " << seed << " shards " << shards
                                 << " lateness_bound " << lateness_bound;
    // One randomized route size per shard count keeps the sweep cheap
    // while still crossing sharding with batching on every run.
    const size_t route_batch_size =
        kRouteBatchSizes[std::uniform_int_distribution<size_t>(1, 3)(rng)];
    EXPECT_EQ(RunSharded(scenario, events, shards, route_batch_size,
                         lateness_bound),
              unbatched)
        << "seed " << seed << " shards " << shards << " route_batch_size "
        << route_batch_size << " lateness_bound " << lateness_bound;
  }
}

constexpr char kSeqDdl[] = R"sql(
  CREATE STREAM C1(readerid, tagid, tagtime);
  CREATE STREAM C2(readerid, tagid, tagtime);
  CREATE STREAM C3(readerid, tagid, tagtime);
)sql";

Scenario SeqScenario(const std::string& mode_clause,
                     const std::string& window_clause) {
  Scenario s;
  s.ddl = kSeqDdl;
  s.query = "SELECT C3.tagid, C1.tagtime, C3.tagtime FROM C1, C2, C3 "
            "WHERE SEQ(C1, C2, C3)" +
            window_clause + mode_clause +
            " AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid";
  s.streams = {"C1", "C2", "C3"};
  return s;
}

Scenario DedupScenario() {
  Scenario s;
  s.ddl = R"sql(
    CREATE STREAM readings(reader_id, tag_id, read_time);
    CREATE STREAM cleaned(reader_id, tag_id, read_time);
  )sql";
  s.query = R"sql(
    INSERT INTO cleaned
    SELECT * FROM readings AS r1
    WHERE NOT EXISTS
      (SELECT * FROM TABLE( readings OVER
          (RANGE 2 seconds PRECEDING CURRENT)) AS r2
       WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)
  )sql";
  s.streams = {"readings"};
  return s;
}

Scenario StarScenario() {
  Scenario s;
  s.ddl = R"sql(
    CREATE STREAM R1(readerid, tagid, tagtime);
    CREATE STREAM R2(readerid, tagid, tagtime);
  )sql";
  s.query = R"sql(
    SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
    FROM R1, R2
    WHERE SEQ(R1*, R2) MODE CHRONICLE
      AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
      AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
  )sql";
  s.streams = {"R1", "R2"};
  s.single_shard_streams = s.streams;
  return s;
}

class BatchDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BatchDifferentialTest, DedupWindowedNotExists) {
  ExpectBatchEquivalence(DedupScenario(), GetParam() ^ 0x85ebca6bu, 300, 5);
}

TEST_P(BatchDifferentialTest, SeqAcrossPairingModes) {
  const uint32_t seed = GetParam();
  int i = 0;
  for (const char* mode :
       {"", " MODE RECENT", " MODE CHRONICLE", " MODE CONSECUTIVE"}) {
    Scenario s = SeqScenario(mode, "");
    if (std::string(mode) == " MODE CONSECUTIVE") {
      s.single_shard_streams = s.streams;
    }
    ExpectBatchEquivalence(s, seed * 31u + static_cast<uint32_t>(i++), 240, 5);
  }
}

TEST_P(BatchDifferentialTest, WindowedSeq) {
  ExpectBatchEquivalence(
      SeqScenario(" MODE CHRONICLE", " OVER [30 SECONDS PRECEDING C3]"),
      GetParam() + 7, 240, 5);
}

TEST_P(BatchDifferentialTest, TrailingStarGroups) {
  ExpectBatchEquivalence(StarScenario(), GetParam() + 101, 200, 4);
}

// ---- crash with a partially filled batch --------------------------------

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "batch_diff_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Crash mid-batch: the sharded engine dies with tuples in a pending
// route batch — WAL-appended (durability precedes buffering) but never
// enqueued to their shard. The consumer acknowledged everything up to
// the checkpoint, so recovery at another route size re-delivers every
// emission after the cut, the never-enqueued tuples' included; the
// concatenation must equal the uninterrupted single-engine run.
std::vector<std::string> RunKilledMidBatch(const Scenario& scenario,
                                           const std::vector<Event>& events,
                                           size_t num_shards,
                                           size_t route_batch_size,
                                           size_t ckpt_at, size_t kill_at,
                                           size_t recover_route_batch_size,
                                           Duration lateness_bound,
                                           const std::string& dir) {
  WalOptions wal_options;
  wal_options.group_commit_bytes = 0;  // every append durable at the kill
  std::vector<std::string> rows;
  {
    ShardedEngine a(RouteOptions(num_shards, route_batch_size, lateness_bound));
    EXPECT_TRUE(a.ExecuteScript(scenario.ddl).ok());
    auto qa = a.RegisterQuery(scenario.query);
    EXPECT_TRUE(qa.ok()) << qa.status();
    EXPECT_TRUE(
        a.Subscribe(qa->output_stream,
                    [&](const Tuple& t) { rows.push_back(t.ToString()); })
            .ok());
    EXPECT_TRUE(a.EnableWal(dir + "/" + kWalFileName, wal_options).ok());
    for (size_t i = 0; i < ckpt_at; ++i) PushEvent(a, events[i]);
    EXPECT_TRUE(a.Checkpoint(dir).ok());
    a.DrainOutputs();  // the consumer's last acknowledged position
    // No flush and no drain: each shard's last run usually stays pending
    // at the router when the engine dies.
    for (size_t i = ckpt_at; i < kill_at; ++i) PushEvent(a, events[i]);
  }  // crash

  ShardedEngine b(
      RouteOptions(num_shards, recover_route_batch_size, lateness_bound));
  EXPECT_TRUE(b.ExecuteScript(scenario.ddl).ok());
  auto qb = b.RegisterQuery(scenario.query);
  EXPECT_TRUE(qb.ok()) << qb.status();
  EXPECT_TRUE(
      b.Subscribe(qb->output_stream,
                  [&](const Tuple& t) { rows.push_back(t.ToString()); })
          .ok());
  ReplayOptions replay;
  replay.deliver_callbacks = true;
  Status recovered = b.RecoverFrom(dir, replay);
  EXPECT_TRUE(recovered.ok()) << recovered;
  for (size_t i = kill_at; i < events.size(); ++i) PushEvent(b, events[i]);
  EXPECT_TRUE(b.AdvanceTime(events.back().ts + Minutes(10)).ok());
  EXPECT_TRUE(b.Flush().ok());
  b.DrainOutputs();
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST_P(BatchDifferentialTest, KillRecoverMidBatch) {
  const uint32_t seed = GetParam();
  const Scenario scenario = SeqScenario(" MODE CHRONICLE", "");
  const auto events = MakeTrace(seed + 59, 200, scenario.streams, 4);
  const Duration lateness_bound = LatenessBoundFor(seed + 59);
  const auto reference = RunSingle(scenario, events, lateness_bound);
  std::mt19937 rng(seed * 40503u + 11);
  int round = 0;
  for (size_t shards : {1u, 2u, 4u}) {
    const size_t pick = std::uniform_int_distribution<size_t>(1, 3)(rng);
    const size_t route_batch_size = kRouteBatchSizes[pick];
    // Recover at a different route size, tuple-at-a-time included.
    const size_t recover_route_batch_size =
        kRouteBatchSizes[(pick + std::uniform_int_distribution<size_t>(
                                     1, 3)(rng)) % 4];
    const size_t ckpt_at =
        std::uniform_int_distribution<size_t>(0, events.size() - 2)(rng);
    const size_t kill_at =
        std::uniform_int_distribution<size_t>(ckpt_at + 1, events.size())(rng);
    const std::string dir = FreshDir("kill_s" + std::to_string(seed) + "_r" +
                                     std::to_string(round++));
    const auto killed = RunKilledMidBatch(
        scenario, events, shards, route_batch_size, ckpt_at, kill_at,
        recover_route_batch_size, lateness_bound, dir);
    EXPECT_EQ(killed, reference)
        << "seed " << seed << " shards " << shards << " route_batch "
        << route_batch_size << " recover_route_batch "
        << recover_route_batch_size << " ckpt_at " << ckpt_at << " kill_at "
        << kill_at << " lateness_bound " << lateness_bound;
    std::filesystem::remove_all(dir);
  }
}

// Every test's seed derivation runs at both lateness bounds
// (a loop index added to a derivation shifts all three seeds alike).
static_assert(RunsBothBounds([](uint32_t s) { return s ^ 0x85ebca6bu; }));
static_assert(RunsBothBounds([](uint32_t s) { return s * 31u; }));
static_assert(RunsBothBounds([](uint32_t s) { return s + 7; }));
static_assert(RunsBothBounds([](uint32_t s) { return s + 101; }));
static_assert(RunsBothBounds([](uint32_t s) { return s + 59; }));

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace eslev
