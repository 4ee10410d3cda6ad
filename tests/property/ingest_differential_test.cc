// Ingest differential sweep (DESIGN.md §15 acceptance): a workload that
// is disordered (within the lateness bound), duplicated, and
// spurious-injected, pushed through an ingest-enabled engine, must
// produce byte-identical output to the clean, in-order run with ingest
// disabled — across the four SEQ pairing modes, 1/2/4 shards at route
// batch sizes drawn from {1, 7, 64}, and a kill/recover mid-stream with
// the reorder buffer non-empty.
//
// Noise construction (rfid::InjectNoise): every clean event gains
// exactly one identical duplicate copy (duplicate_rate 1.0, one copy),
// so with min_read_count = 2 the cleaning stage believes every real
// read and filters every once-seen ghost; arrival disorder is bounded
// by max_shift <= lateness_bound, so the reorder stage restores the
// exact clean order with zero late drops. Timestamps are made unique
// first (NormalizeUniqueTimestamps) because the reorder stage breaks
// timestamp ties by arrival order, which a disordered run cannot
// reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "recovery/checkpoint.h"
#include "rfid/workloads.h"

namespace eslev {
namespace {

using rfid::InjectNoise;
using rfid::NoiseOptions;
using rfid::NoiseStats;
using rfid::Workload;

const Duration kMaxShift = Milliseconds(400);
const Duration kSmoothing = Milliseconds(1);
const size_t kRouteBatchSizes[] = {1, 7, 64};

struct Scenario {
  std::string ddl;
  std::string query;
  std::vector<std::string> streams;
  std::vector<std::string> single_shard_streams;  // empty: partitioned
};

// Clean trace as an rfid::Workload so the noise injector applies
// directly. Inter-arrival >= 50 ms keeps distinct same-key reads far
// outside the 1 ms smoothing window, so cleaning is an identity on the
// clean events once each is duplicated past min_read_count.
Workload MakeCleanWorkload(uint32_t seed, size_t num_events,
                           const std::vector<std::string>& streams,
                           int num_tags) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> pick_stream(0, streams.size() - 1);
  std::uniform_int_distribution<int> pick_tag(0, num_tags - 1);
  std::uniform_int_distribution<Duration> step(Milliseconds(50), Seconds(2));
  Workload w;
  Timestamp now = Seconds(1);
  for (size_t i = 0; i < num_events; ++i) {
    auto t = MakeTuple(rfid::ReaderSchema(),
                       {Value::String("r"),
                        Value::String("tag" + std::to_string(pick_tag(rng))),
                        Value::Time(now)},
                       now);
    EXPECT_TRUE(t.ok());
    w.events.push_back({streams[pick_stream(rng)], std::move(t).ValueUnsafe()});
    now += step(rng);
  }
  rfid::NormalizeUniqueTimestamps(&w);
  return w;
}

Workload MakeNoisy(const Workload& clean, uint32_t seed, NoiseStats* stats) {
  Workload noisy = clean;
  NoiseOptions noise;
  noise.max_shift = kMaxShift;
  noise.duplicate_rate = 1.0;  // every event reaches min_read_count = 2
  noise.duplicate_copies = 1;
  noise.spurious_rate = 0.25;
  noise.drop_rate = 0.0;  // byte-identity: nothing may go missing
  noise.seed = seed;
  *stats = InjectNoise(&noisy, noise);
  EXPECT_LE(stats->max_disorder, kMaxShift);
  EXPECT_GT(stats->duplicates_added, 0u);
  return noisy;
}

EngineOptions NoisyOptions() {
  EngineOptions options;
  options.ingest.lateness_bound = kMaxShift;
  options.ingest.smoothing_window = kSmoothing;
  options.ingest.min_read_count = 2;
  return options;
}

Timestamp LastTs(const Workload& w) {
  Timestamp last = kMinTimestamp;
  for (const auto& ev : w.events) last = std::max(last, ev.tuple.ts());
  return last;
}

void PushAll(Engine& engine, const Workload& w) {
  for (const auto& ev : w.events) {
    ASSERT_TRUE(
        engine.Push(ev.stream, ev.tuple.values(), ev.tuple.ts()).ok());
  }
}

// Exact emission order: single-engine equivalence is byte-for-byte.
std::vector<std::string> RunSingle(const Scenario& scenario,
                                   const Workload& w,
                                   const EngineOptions& options) {
  Engine engine(options);
  EXPECT_TRUE(engine.ExecuteScript(scenario.ddl).ok());
  auto q = engine.RegisterQuery(scenario.query);
  EXPECT_TRUE(q.ok()) << q.status();
  std::vector<std::string> rows;
  EXPECT_TRUE(
      engine
          .Subscribe(q->output_stream,
                     [&](const Tuple& t) { rows.push_back(t.ToString()); })
          .ok());
  PushAll(engine, w);
  EXPECT_TRUE(engine.AdvanceTime(LastTs(w) + Minutes(10)).ok());
  if (engine.ingest_enabled()) {
    // Bounded disorder through a covering lateness bound loses nothing.
    EXPECT_EQ(engine.ingest_pipeline()->reorder()->late_dropped(), 0u);
    EXPECT_GT(engine.ingest_pipeline()->cleaning()->dups_suppressed(), 0u);
  }
  return rows;
}

std::vector<std::string> RunSharded(const Scenario& scenario,
                                    const Workload& w, size_t num_shards,
                                    size_t route_batch_size, bool with_ingest) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.engine = with_ingest ? NoisyOptions() : EngineOptions{};
  options.route_batch_size = route_batch_size;
  ShardedEngine engine(options);
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
  for (const auto& ev : w.events) {
    EXPECT_TRUE(
        engine.Push(ev.stream, ev.tuple.values(), ev.tuple.ts()).ok());
  }
  EXPECT_TRUE(engine.AdvanceTime(LastTs(w) + Minutes(10)).ok());
  EXPECT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectIngestEquivalence(const Scenario& scenario, uint32_t seed,
                             size_t num_events, int num_tags) {
  const Workload clean =
      MakeCleanWorkload(seed, num_events, scenario.streams, num_tags);
  NoiseStats stats;
  const Workload noisy = MakeNoisy(clean, seed * 2654435761u + 1, &stats);

  const auto reference = RunSingle(scenario, clean, EngineOptions{});
  EXPECT_EQ(RunSingle(scenario, noisy, NoisyOptions()), reference)
      << "seed " << seed;

  auto sorted_reference = reference;
  std::sort(sorted_reference.begin(), sorted_reference.end());
  std::mt19937 rng(seed * 2246822519u + 7);
  for (size_t shards : {1u, 2u, 4u}) {
    const size_t route_batch_size =
        kRouteBatchSizes[std::uniform_int_distribution<size_t>(0, 2)(rng)];
    EXPECT_EQ(RunSharded(scenario, noisy, shards, route_batch_size,
                         /*with_ingest=*/true),
              sorted_reference)
        << "seed " << seed << " shards " << shards << " route_batch_size "
        << route_batch_size;
  }
}

constexpr char kSeqDdl[] = R"sql(
  CREATE STREAM C1(readerid, tagid, tagtime);
  CREATE STREAM C2(readerid, tagid, tagtime);
  CREATE STREAM C3(readerid, tagid, tagtime);
)sql";

Scenario SeqScenario(const std::string& mode_clause) {
  Scenario s;
  s.ddl = kSeqDdl;
  s.query = "SELECT C3.tagid, C1.tagtime, C3.tagtime FROM C1, C2, C3 "
            "WHERE SEQ(C1, C2, C3)" +
            mode_clause + " AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid";
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

class IngestDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IngestDifferentialTest, SeqAcrossPairingModes) {
  const uint32_t seed = GetParam();
  int i = 0;
  for (const char* mode :
       {"", " MODE RECENT", " MODE CHRONICLE", " MODE CONSECUTIVE"}) {
    Scenario s = SeqScenario(mode);
    if (std::string(mode) == " MODE CONSECUTIVE") {
      s.single_shard_streams = s.streams;
    }
    ExpectIngestEquivalence(s, seed * 31u + static_cast<uint32_t>(i++), 160, 5);
  }
}

TEST_P(IngestDifferentialTest, DedupWindowedNotExists) {
  ExpectIngestEquivalence(DedupScenario(), GetParam() ^ 0x85ebca6bu, 200, 5);
}

TEST_P(IngestDifferentialTest, TrailingStarGroups) {
  ExpectIngestEquivalence(StarScenario(), GetParam() + 101, 160, 4);
}

// ---- kill/recover with a non-empty reorder buffer -----------------------

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ingest_diff_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Crash with events buffered inside the ingest chain: raw arrivals are
// WAL-logged before they enter the pipeline, so recovery re-offers them
// through the restored ingest state and re-derives the identical
// release sequence. `deliver_after` carries the consumer's durable
// emission count, so the concatenation of pre-crash and post-recovery
// deliveries must equal the clean uninterrupted run byte for byte.
std::vector<std::string> RunKilledMidIngest(const Scenario& scenario,
                                            const Workload& noisy,
                                            size_t ckpt_at, size_t kill_at,
                                            const std::string& dir) {
  WalOptions wal_options;
  wal_options.group_commit_bytes = 0;  // every append durable at the kill
  std::vector<std::string> rows;
  std::string output_stream;
  {
    Engine a(NoisyOptions());
    EXPECT_TRUE(a.ExecuteScript(scenario.ddl).ok());
    auto qa = a.RegisterQuery(scenario.query);
    EXPECT_TRUE(qa.ok()) << qa.status();
    output_stream = qa->output_stream;
    EXPECT_TRUE(
        a.Subscribe(qa->output_stream,
                    [&](const Tuple& t) { rows.push_back(t.ToString()); })
            .ok());
    EXPECT_TRUE(a.EnableWal(dir + "/" + kWalFileName, wal_options).ok());
    for (size_t i = 0; i < ckpt_at; ++i) {
      const auto& ev = noisy.events[i];
      EXPECT_TRUE(a.Push(ev.stream, ev.tuple.values(), ev.tuple.ts()).ok());
    }
    EXPECT_TRUE(a.Checkpoint(dir).ok());
    for (size_t i = ckpt_at; i < kill_at; ++i) {
      const auto& ev = noisy.events[i];
      EXPECT_TRUE(a.Push(ev.stream, ev.tuple.values(), ev.tuple.ts()).ok());
    }
    // The kill target of this suite: the engine dies while the reorder
    // stage still holds undelivered events (any pushed event within the
    // lateness bound of the frontier is held back, so after at least
    // one push the buffer is never empty).
    if (kill_at > 0) {
      EXPECT_GT(a.Metrics().gauges.at("ingest.reorder.depth"), 0)
          << "kill_at " << kill_at;
    }
  }  // crash

  ReplayOptions replay;
  replay.deliver_after[output_stream] = rows.size();
  Engine b(NoisyOptions());
  EXPECT_TRUE(b.ExecuteScript(scenario.ddl).ok());
  auto qb = b.RegisterQuery(scenario.query);
  EXPECT_TRUE(qb.ok()) << qb.status();
  EXPECT_TRUE(
      b.Subscribe(qb->output_stream,
                  [&](const Tuple& t) { rows.push_back(t.ToString()); })
          .ok());
  Status recovered = b.RecoverFrom(dir, replay);
  EXPECT_TRUE(recovered.ok()) << recovered;
  for (size_t i = kill_at; i < noisy.events.size(); ++i) {
    const auto& ev = noisy.events[i];
    EXPECT_TRUE(b.Push(ev.stream, ev.tuple.values(), ev.tuple.ts()).ok());
  }
  EXPECT_TRUE(b.AdvanceTime(LastTs(noisy) + Minutes(10)).ok());
  EXPECT_EQ(b.ingest_pipeline()->reorder()->late_dropped(), 0u);
  return rows;
}

TEST_P(IngestDifferentialTest, KillRecoverWithBufferedReorder) {
  const uint32_t seed = GetParam();
  const Scenario scenario = SeqScenario(" MODE CHRONICLE");
  const Workload clean =
      MakeCleanWorkload(seed + 59, 160, scenario.streams, 4);
  NoiseStats stats;
  const Workload noisy = MakeNoisy(clean, seed * 40503u + 13, &stats);
  const auto reference = RunSingle(scenario, clean, EngineOptions{});
  std::mt19937 rng(seed * 40503u + 11);
  for (int round = 0; round < 3; ++round) {
    const size_t ckpt_at = std::uniform_int_distribution<size_t>(
        1, noisy.events.size() - 1)(rng);
    const size_t kill_at = std::uniform_int_distribution<size_t>(
        ckpt_at, noisy.events.size())(rng);
    const std::string dir = FreshDir("kill_s" + std::to_string(seed) + "_r" +
                                     std::to_string(round));
    const auto killed =
        RunKilledMidIngest(scenario, noisy, ckpt_at, kill_at, dir);
    EXPECT_EQ(killed, reference)
        << "seed " << seed << " ckpt_at " << ckpt_at << " kill_at "
        << kill_at;
    std::filesystem::remove_all(dir);
  }
}

// Sharded front-end ingest: the pipeline sits ahead of hash
// partitioning and checkpoints into <dir>/ingest.state; the kill lands
// with raw arrivals buffered ahead of the shards.
std::vector<std::string> RunShardedKilledMidIngest(const Scenario& scenario,
                                                   const Workload& noisy,
                                                   size_t num_shards,
                                                   size_t route_batch_size,
                                                   size_t ckpt_at,
                                                   size_t kill_at,
                                                   const std::string& dir) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.engine = NoisyOptions();
  options.route_batch_size = route_batch_size;
  WalOptions wal_options;
  wal_options.group_commit_bytes = 0;
  std::vector<std::string> rows;
  auto push = [](ShardedEngine& engine, const rfid::TimedReading& ev) {
    ASSERT_TRUE(
        engine.Push(ev.stream, ev.tuple.values(), ev.tuple.ts()).ok());
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
    for (size_t i = 0; i < ckpt_at; ++i) push(a, noisy.events[i]);
    EXPECT_TRUE(a.Checkpoint(dir).ok());
    for (size_t i = ckpt_at; i < kill_at; ++i) push(a, noisy.events[i]);
    // The consumer drained everything delivered so far; the crash loses
    // only in-flight state (including the ingest buffers), which
    // recovery must regenerate.
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
  for (size_t i = kill_at; i < noisy.events.size(); ++i) {
    push(b, noisy.events[i]);
  }
  EXPECT_TRUE(b.AdvanceTime(LastTs(noisy) + Minutes(10)).ok());
  EXPECT_TRUE(b.Flush().ok());
  b.DrainOutputs();
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST_P(IngestDifferentialTest, ShardedKillRecoverWithIngest) {
  const uint32_t seed = GetParam();
  const Scenario scenario = SeqScenario(" MODE CHRONICLE");
  const Workload clean =
      MakeCleanWorkload(seed + 97, 140, scenario.streams, 4);
  NoiseStats stats;
  const Workload noisy = MakeNoisy(clean, seed * 69621u + 29, &stats);
  auto reference = RunSingle(scenario, clean, EngineOptions{});
  std::sort(reference.begin(), reference.end());
  std::mt19937 rng(seed * 69621u + 31);
  std::mt19937 route_rng(seed * 2246822519u + 7);
  for (size_t shards : {2u, 4u}) {
    const size_t route_batch_size =
        kRouteBatchSizes[std::uniform_int_distribution<size_t>(0, 2)(route_rng)];
    const size_t ckpt_at = std::uniform_int_distribution<size_t>(
        1, noisy.events.size() - 1)(rng);
    const size_t kill_at = std::uniform_int_distribution<size_t>(
        ckpt_at, noisy.events.size())(rng);
    const std::string dir = FreshDir("shard_s" + std::to_string(seed) + "_n" +
                                     std::to_string(shards));
    const auto killed = RunShardedKilledMidIngest(
        scenario, noisy, shards, route_batch_size, ckpt_at, kill_at, dir);
    EXPECT_EQ(killed, reference)
        << "seed " << seed << " shards " << shards << " route_batch_size "
        << route_batch_size << " ckpt_at " << ckpt_at << " kill_at "
        << kill_at;
    std::filesystem::remove_all(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IngestDifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace eslev
