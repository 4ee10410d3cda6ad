// Kill-replay differential sweep (DESIGN.md §10 acceptance): on seeded
// random traces, crash the engine at a random point (after a checkpoint
// taken at another random point), recover from checkpoint + WAL suffix,
// feed the remaining trace, and require the concatenation of pre-crash
// and post-recovery emissions to be byte-identical to an uninterrupted
// run — across all four pairing modes, windowed SEQ, the trailing-star
// extension, EXCEPTION_SEQ deadline anchors, and ShardedEngine at
// 1/2/4 shards. Every sharded and replicated run draws its route batch
// size from 1/7/64. Every kill-replay run (not the promote runs:
// ReplicatedShardedEngine rejects ingest) draws the ingest reorder
// stage's lateness bound from {0, 400 ms}, so recovery also runs with
// live reorder state.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "recovery/checkpoint.h"
#include "replication/replicated_engine.h"
#include "tests/property/lateness_draw.h"

namespace eslev {
namespace {

const size_t kRouteBatchSizes[] = {1, 7, 64};

// Route sizes come from their own generator, so drawing them leaves the
// checkpoint and kill points of every seed unchanged.
size_t DrawRouteBatchSize(std::mt19937& rng) {
  return kRouteBatchSizes[std::uniform_int_distribution<size_t>(0, 2)(rng)];
}

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
  // How far past the last event the closing heartbeat advances —
  // EXCEPTION_SEQ scenarios need it beyond the FOLLOWING window so
  // checkpointed deadlines fire after recovery.
  Duration tail_advance = Minutes(10);
};

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "recovery_diff_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void PushEvent(Engine& engine, const Event& e) {
  ASSERT_TRUE(engine
                  .Push(e.stream,
                        {Value::String("r"), Value::String(e.tag),
                         Value::Time(e.ts)},
                        e.ts)
                  .ok());
}

std::vector<std::string> RunUninterrupted(const Scenario& scenario,
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
  EXPECT_TRUE(engine.AdvanceTime(events.back().ts + scenario.tail_advance).ok());
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Run the same trace with a checkpoint at `ckpt_at` and a crash at
// `kill_at` (engine destroyed, only the WAL and checkpoint survive),
// then recover into a fresh engine and feed the tail. Returns the
// concatenation of pre-crash and post-recovery emissions, sorted.
std::vector<std::string> RunKilled(const Scenario& scenario,
                                   const std::vector<Event>& events,
                                   size_t ckpt_at, size_t kill_at,
                                   Duration lateness_bound,
                                   const std::string& dir) {
  WalOptions wal_options;
  wal_options.group_commit_bytes = 0;  // every append durable at the kill
  std::vector<std::string> rows;
  std::string output_stream;
  {
    Engine a(IngestOptionsWith(lateness_bound));
    EXPECT_TRUE(a.ExecuteScript(scenario.ddl).ok());
    auto qa = a.RegisterQuery(scenario.query);
    EXPECT_TRUE(qa.ok()) << qa.status();
    output_stream = qa->output_stream;
    EXPECT_TRUE(
        a.Subscribe(qa->output_stream,
                    [&](const Tuple& t) { rows.push_back(t.ToString()); })
            .ok());
    EXPECT_TRUE(a.EnableWal(dir + "/" + kWalFileName, wal_options).ok());
    for (size_t i = 0; i < ckpt_at; ++i) PushEvent(a, events[i]);
    EXPECT_TRUE(a.Checkpoint(dir).ok());
    for (size_t i = ckpt_at; i < kill_at; ++i) PushEvent(a, events[i]);
  }  // crash: nothing after this line sees engine A

  Engine b(IngestOptionsWith(lateness_bound));
  EXPECT_TRUE(b.ExecuteScript(scenario.ddl).ok());
  auto qb = b.RegisterQuery(scenario.query);
  EXPECT_TRUE(qb.ok()) << qb.status();
  EXPECT_TRUE(
      b.Subscribe(qb->output_stream,
                  [&](const Tuple& t) { rows.push_back(t.ToString()); })
          .ok());
  // The consumer durably received rows.size() emissions before the
  // crash; replay re-delivers exactly the lost tail — empty here, since
  // every emission was delivered synchronously — which is how an
  // exactly-once consumer resumes.
  ReplayOptions replay;
  replay.deliver_after[output_stream] = rows.size();
  Status recovered = b.RecoverFrom(dir, replay);
  EXPECT_TRUE(recovered.ok()) << recovered;
  for (size_t i = kill_at; i < events.size(); ++i) PushEvent(b, events[i]);
  EXPECT_TRUE(b.AdvanceTime(events.back().ts + scenario.tail_advance).ok());
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectKillReplayEquivalence(const Scenario& scenario, uint32_t seed,
                                 size_t num_events, int num_tags,
                                 const std::string& tag) {
  const auto events = MakeTrace(seed, num_events, scenario.streams, num_tags);
  const Duration lateness_bound = LatenessBoundFor(seed);
  const auto reference = RunUninterrupted(scenario, events, lateness_bound);
  std::mt19937 rng(seed * 2654435761u + 1);
  for (int round = 0; round < 3; ++round) {
    const size_t ckpt_at =
        std::uniform_int_distribution<size_t>(0, num_events - 1)(rng);
    const size_t kill_at =
        std::uniform_int_distribution<size_t>(ckpt_at, num_events)(rng);
    const std::string dir =
        FreshDir(tag + "_s" + std::to_string(seed) + "_r" +
                 std::to_string(round));
    const auto killed =
        RunKilled(scenario, events, ckpt_at, kill_at, lateness_bound, dir);
    EXPECT_EQ(killed, reference)
        << tag << " seed " << seed << " ckpt_at " << ckpt_at << " kill_at "
        << kill_at << " lateness_bound " << lateness_bound;
    std::filesystem::remove_all(dir);
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

class RecoveryDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RecoveryDifferentialTest, SeqAcrossAllPairingModes) {
  const uint32_t seed = GetParam();
  int i = 0;
  for (const char* mode :
       {"", " MODE RECENT", " MODE CHRONICLE", " MODE CONSECUTIVE"}) {
    ExpectKillReplayEquivalence(SeqScenario(mode, ""), seed ^ 0x9e3779b9u, 160,
                                4, "mode" + std::to_string(i++));
  }
}

TEST_P(RecoveryDifferentialTest, WindowedSeq) {
  ExpectKillReplayEquivalence(
      SeqScenario(" MODE CHRONICLE", " OVER [30 SECONDS PRECEDING C3]"),
      GetParam() + 7, 160, 4, "windowed");
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
  return s;
}

Scenario ExceptionScenario() {
  Scenario s;
  s.ddl = kSeqDdl;
  s.query = "SELECT C1.tagid, C1.tagtime FROM C1, C2, C3 "
            "WHERE EXCEPTION_SEQ(C1, C2, C3) OVER [10 MINUTES FOLLOWING C1] "
            "AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid";
  s.streams = {"C1", "C2", "C3"};
  s.tail_advance = Minutes(30);  // beyond every open deadline
  return s;
}

TEST_P(RecoveryDifferentialTest, TrailingStarGroups) {
  ExpectKillReplayEquivalence(StarScenario(), GetParam() + 101, 140, 3, "star");
}

TEST_P(RecoveryDifferentialTest, ExceptionSeqDeadlinesSurviveTheCrash) {
  // Anchored 10-minute deadlines: many are open at the kill point, so
  // recovery must reconstruct them from the checkpoint (and WAL-replayed
  // heartbeats) for the tail heartbeat to fire the same violations.
  ExpectKillReplayEquivalence(ExceptionScenario(), GetParam() + 211, 140, 4,
                              "exception");
}

// ---- sharded: coordinated checkpoint + front-end WAL --------------------

std::vector<std::string> RunShardedUninterrupted(
    const Scenario& scenario, const std::vector<Event>& events,
    size_t num_shards, size_t route_batch_size, Duration lateness_bound) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.engine = IngestOptionsWith(lateness_bound);
  options.route_batch_size = route_batch_size;
  ShardedEngine engine(options);
  EXPECT_TRUE(engine.ExecuteScript(scenario.ddl).ok());
  auto q = engine.RegisterQuery(scenario.query);
  EXPECT_TRUE(q.ok()) << q.status();
  std::vector<std::string> rows;
  EXPECT_TRUE(
      engine
          .Subscribe(q->output_stream,
                     [&](const Tuple& t) { rows.push_back(t.ToString()); })
          .ok());
  for (const Event& e : events) {
    EXPECT_TRUE(engine
                    .Push(e.stream,
                          {Value::String("r"), Value::String(e.tag),
                           Value::Time(e.ts)},
                          e.ts)
                    .ok());
  }
  EXPECT_TRUE(engine.AdvanceTime(events.back().ts + scenario.tail_advance).ok());
  EXPECT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> RunShardedKilled(const Scenario& scenario,
                                          const std::vector<Event>& events,
                                          size_t num_shards,
                                          size_t route_batch_size,
                                          size_t ckpt_at, size_t kill_at,
                                          Duration lateness_bound,
                                          const std::string& dir) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.engine = IngestOptionsWith(lateness_bound);
  options.route_batch_size = route_batch_size;
  WalOptions wal_options;
  wal_options.group_commit_bytes = 0;
  std::vector<std::string> rows;
  auto push = [](ShardedEngine& engine, const Event& e) {
    ASSERT_TRUE(engine
                    .Push(e.stream,
                          {Value::String("r"), Value::String(e.tag),
                           Value::Time(e.ts)},
                          e.ts)
                    .ok());
  };
  {
    ShardedEngine a(options);
    EXPECT_TRUE(a.ExecuteScript(scenario.ddl).ok());
    auto qa = a.RegisterQuery(scenario.query);
    EXPECT_TRUE(qa.ok()) << qa.status();
    EXPECT_TRUE(
        a.Subscribe(qa->output_stream,
                    [&](const Tuple& t) { rows.push_back(t.ToString()); })
            .ok());
    EXPECT_TRUE(a.EnableWal(dir + "/" + kWalFileName, wal_options).ok());
    for (size_t i = 0; i < ckpt_at; ++i) push(a, events[i]);
    EXPECT_TRUE(a.Checkpoint(dir).ok());
    for (size_t i = ckpt_at; i < kill_at; ++i) push(a, events[i]);
    // The consumer drained everything delivered so far; the crash loses
    // only in-flight state, which recovery must regenerate.
    EXPECT_TRUE(a.Flush().ok());
    a.DrainOutputs();
  }  // crash

  ShardedEngine b(options);
  EXPECT_TRUE(b.ExecuteScript(scenario.ddl).ok());
  auto qb = b.RegisterQuery(scenario.query);
  EXPECT_TRUE(qb.ok()) << qb.status();
  EXPECT_TRUE(
      b.Subscribe(qb->output_stream,
                  [&](const Tuple& t) { rows.push_back(t.ToString()); })
          .ok());
  Status recovered = b.RecoverFrom(dir);
  EXPECT_TRUE(recovered.ok()) << recovered;
  for (size_t i = kill_at; i < events.size(); ++i) push(b, events[i]);
  EXPECT_TRUE(b.AdvanceTime(events.back().ts + scenario.tail_advance).ok());
  EXPECT_TRUE(b.Flush().ok());
  b.DrainOutputs();
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST_P(RecoveryDifferentialTest, ShardedKillReplayAt124Shards) {
  const uint32_t seed = GetParam();
  const Scenario scenario = SeqScenario(" MODE CHRONICLE", "");
  const auto events = MakeTrace(seed + 53, 160, scenario.streams, 4);
  const Duration lateness_bound = LatenessBoundFor(seed + 53);
  std::mt19937 rng(seed * 40503u + 3);
  std::mt19937 route_rng(seed * 2246822519u + 3);
  for (size_t shards : {1u, 2u, 4u}) {
    const size_t route_batch_size = DrawRouteBatchSize(route_rng);
    const auto reference = RunShardedUninterrupted(
        scenario, events, shards, route_batch_size, lateness_bound);
    const size_t ckpt_at =
        std::uniform_int_distribution<size_t>(0, events.size() - 1)(rng);
    const size_t kill_at =
        std::uniform_int_distribution<size_t>(ckpt_at, events.size())(rng);
    const std::string dir =
        FreshDir("sharded_s" + std::to_string(seed) + "_n" +
                 std::to_string(shards));
    const auto killed =
        RunShardedKilled(scenario, events, shards, route_batch_size, ckpt_at,
                         kill_at, lateness_bound, dir);
    EXPECT_EQ(killed, reference)
        << shards << " shards, route_batch_size " << route_batch_size
        << ", seed " << seed << " ckpt_at " << ckpt_at << " kill_at "
        << kill_at << " lateness_bound " << lateness_bound;
    std::filesystem::remove_all(dir);
  }
}

// ---- replicated: kill a primary shard, promote its hot standby ----------

// Run the trace on a ReplicatedShardedEngine: checkpoint at `ckpt_at`
// (which provisions the standbys), kill shard `shard_to_kill` at
// `kill_at` after draining everything delivered so far, keep pushing
// into the dark window (the victim's share reaches only the WAL, which
// is exactly what its standby replays), promote at `resume_at`, and
// finish the trace on the promoted engine. Replicate() is sprinkled
// through the trace so shipping/apply runs incrementally, not as one
// big promotion-time catch-up. Returns the sorted emissions, which must
// be byte-identical to the failure-free sharded run.
std::vector<std::string> RunReplicatedKillPromote(
    const Scenario& scenario, const std::vector<Event>& events,
    size_t num_shards, size_t route_batch_size, size_t ckpt_at,
    size_t kill_at, size_t resume_at, size_t shard_to_kill,
    const std::string& dir) {
  ReplicatedShardedEngineOptions options;
  options.num_shards = num_shards;
  options.route_batch_size = route_batch_size;
  options.dir = dir;
  options.wal.group_commit_bytes = 0;  // every append durable at the kill
  options.wal.segment_bytes = 2048;    // rotate mid-trace: sealed + live ship
  auto opened = ReplicatedShardedEngine::Open(options);
  EXPECT_TRUE(opened.ok()) << opened.status();
  ReplicatedShardedEngine& engine = **opened;
  EXPECT_TRUE(engine.ExecuteScript(scenario.ddl).ok());
  auto q = engine.RegisterQuery(scenario.query);
  EXPECT_TRUE(q.ok()) << q.status();
  std::vector<std::string> rows;
  EXPECT_TRUE(
      engine
          .Subscribe(q->output_stream,
                     [&](const Tuple& t) { rows.push_back(t.ToString()); })
          .ok());
  auto push = [&](size_t i) {
    const Event& e = events[i];
    ASSERT_TRUE(engine
                    .Push(e.stream,
                          {Value::String("r"), Value::String(e.tag),
                           Value::Time(e.ts)},
                          e.ts)
                    .ok());
    if (i % 40 == 17) {
      Status replicated = engine.Replicate();
      EXPECT_TRUE(replicated.ok()) << replicated;
    }
  };
  for (size_t i = 0; i < ckpt_at; ++i) push(i);
  EXPECT_TRUE(engine.Flush().ok());
  Status ckpt = engine.Checkpoint();
  EXPECT_TRUE(ckpt.ok()) << ckpt;
  for (size_t i = ckpt_at; i < kill_at; ++i) push(i);
  // The consumer drained everything delivered so far; the failover must
  // regenerate only what was in flight, without double-delivering this.
  EXPECT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  EXPECT_TRUE(engine.KillShard(shard_to_kill).ok());
  for (size_t i = kill_at; i < resume_at; ++i) push(i);
  auto healed = engine.HealFailures();
  EXPECT_TRUE(healed.ok()) << healed.status();
  if (healed.ok()) {
    EXPECT_EQ(*healed, 1u);
  }
  for (size_t i = resume_at; i < events.size(); ++i) push(i);
  EXPECT_TRUE(
      engine.AdvanceTime(events.back().ts + scenario.tail_advance).ok());
  EXPECT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectKillPromoteEquivalence(const Scenario& scenario, uint32_t seed,
                                  size_t num_events, int num_tags,
                                  const std::string& tag) {
  const auto events = MakeTrace(seed, num_events, scenario.streams, num_tags);
  std::mt19937 rng(seed * 69621u + 5);
  std::mt19937 route_rng(seed * 2246822519u + 3);
  for (size_t shards : {1u, 2u, 4u}) {
    const size_t route_batch_size = DrawRouteBatchSize(route_rng);
    const auto reference = RunShardedUninterrupted(
        scenario, events, shards, route_batch_size, /*lateness_bound=*/0);
    const size_t ckpt_at =
        std::uniform_int_distribution<size_t>(1, num_events / 2)(rng);
    const size_t kill_at =
        std::uniform_int_distribution<size_t>(ckpt_at, num_events - 1)(rng);
    const size_t resume_at =
        std::uniform_int_distribution<size_t>(kill_at, num_events)(rng);
    const size_t shard_to_kill =
        std::uniform_int_distribution<size_t>(0, shards - 1)(rng);
    const std::string dir =
        FreshDir("promote_" + tag + "_s" + std::to_string(seed) + "_n" +
                 std::to_string(shards));
    const auto promoted = RunReplicatedKillPromote(
        scenario, events, shards, route_batch_size, ckpt_at, kill_at,
        resume_at, shard_to_kill, dir);
    EXPECT_EQ(promoted, reference)
        << tag << " shards " << shards << " route_batch_size "
        << route_batch_size << " seed " << seed << " ckpt_at "
        << ckpt_at << " kill_at " << kill_at << " resume_at " << resume_at
        << " victim " << shard_to_kill;
    std::filesystem::remove_all(dir);
  }
}

TEST_P(RecoveryDifferentialTest, PromoteAcrossAllPairingModes) {
  int i = 0;
  for (const char* mode :
       {"", " MODE RECENT", " MODE CHRONICLE", " MODE CONSECUTIVE"}) {
    ExpectKillPromoteEquivalence(SeqScenario(mode, ""),
                                 GetParam() * 31u + static_cast<uint32_t>(i),
                                 120, 4, "pmode" + std::to_string(i));
    ++i;
  }
}

TEST_P(RecoveryDifferentialTest, PromoteWindowedSeq) {
  ExpectKillPromoteEquivalence(
      SeqScenario(" MODE CHRONICLE", " OVER [30 SECONDS PRECEDING C3]"),
      GetParam() + 307, 120, 4, "pwindowed");
}

TEST_P(RecoveryDifferentialTest, PromoteTrailingStarGroups) {
  ExpectKillPromoteEquivalence(StarScenario(), GetParam() + 401, 120, 3,
                               "pstar");
}

TEST_P(RecoveryDifferentialTest, PromoteExceptionSeqDeadlines) {
  // The deadline for every C1 still open at the kill is owned by the
  // victim's standby after promotion; each must fire exactly once.
  ExpectKillPromoteEquivalence(ExceptionScenario(), GetParam() + 503, 120, 4,
                               "pexception");
}

// Every test's seed derivation runs at both lateness bounds
// (the Promote legs run without a reorder stage).
static_assert(RunsBothBounds([](uint32_t s) { return s ^ 0x9e3779b9u; }));
static_assert(RunsBothBounds([](uint32_t s) { return s + 7; }));
static_assert(RunsBothBounds([](uint32_t s) { return s + 101; }));
static_assert(RunsBothBounds([](uint32_t s) { return s + 211; }));
static_assert(RunsBothBounds([](uint32_t s) { return s + 53; }));

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryDifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace eslev
