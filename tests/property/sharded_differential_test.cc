// Differential property sweep: on seeded random traces, a ShardedEngine
// at 1, 2 and 4 shards, each run at a route batch size drawn from
// 1/7/64, must emit byte-identical output (after a timestamp-stable
// sort) to a single Engine, across pairing modes and windows.
// Tag-partitionable SEQ queries run fully sharded; CONSECUTIVE and
// star-group queries depend on cross-tag adjacency in the joint history,
// so their source streams use the single-shard fallback. Every seeded
// run draws the ingest reorder stage's lateness bound from {0, 400 ms},
// which must not change a byte either.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "tests/property/lateness_draw.h"

namespace eslev {
namespace {

const size_t kRouteBatchSizes[] = {1, 7, 64};

struct Event {
  std::string stream;
  std::string tag;
  Timestamp ts;
};

// Random trace over `streams`: strictly increasing timestamps, tags
// drawn from a small pool so sequences complete often.
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

std::vector<std::string> RunSingle(const Scenario& scenario,
                                   const std::vector<Event>& events,
                                   Duration lateness_bound) {
  Engine engine(IngestOptionsWith(lateness_bound));
  EXPECT_TRUE(engine.ExecuteScript(scenario.ddl).ok());
  auto q = engine.RegisterQuery(scenario.query);
  EXPECT_TRUE(q.ok()) << q.status();
  std::vector<std::string> rows;
  EXPECT_TRUE(engine
                  .Subscribe(q->output_stream,
                             [&](const Tuple& t) { rows.push_back(t.ToString()); })
                  .ok());
  Timestamp last = kMinTimestamp;
  for (const Event& e : events) {
    EXPECT_TRUE(engine
                    .Push(e.stream,
                          {Value::String("r"), Value::String(e.tag),
                           Value::Time(e.ts)},
                          e.ts)
                    .ok());
    last = e.ts;
  }
  EXPECT_TRUE(engine.AdvanceTime(last + Minutes(10)).ok());
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> RunSharded(const Scenario& scenario,
                                    const std::vector<Event>& events,
                                    size_t num_shards,
                                    size_t route_batch_size,
                                    Duration lateness_bound) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.route_batch_size = route_batch_size;
  options.engine = IngestOptionsWith(lateness_bound);
  ShardedEngine engine(options);
  EXPECT_TRUE(engine.ExecuteScript(scenario.ddl).ok());
  auto q = engine.RegisterQuery(scenario.query);
  EXPECT_TRUE(q.ok()) << q.status();
  for (const std::string& s : scenario.single_shard_streams) {
    EXPECT_TRUE(engine.SetSingleShard(s).ok());
  }
  std::vector<std::string> rows;
  EXPECT_TRUE(engine
                  .Subscribe(q->output_stream,
                             [&](const Tuple& t) { rows.push_back(t.ToString()); })
                  .ok());
  Timestamp last = kMinTimestamp;
  for (const Event& e : events) {
    EXPECT_TRUE(engine
                    .Push(e.stream,
                          {Value::String("r"), Value::String(e.tag),
                           Value::Time(e.ts)},
                          e.ts)
                    .ok());
    last = e.ts;
  }
  EXPECT_TRUE(engine.AdvanceTime(last + Minutes(10)).ok());
  EXPECT_TRUE(engine.Flush().ok());
  engine.DrainOutputs();
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectDifferentialEquivalence(const Scenario& scenario, uint32_t seed,
                                   size_t num_events, int num_tags) {
  const auto events = MakeTrace(seed, num_events, scenario.streams, num_tags);
  const Duration lateness_bound = LatenessBoundFor(seed);
  const auto reference = RunSingle(scenario, events, lateness_bound);
  std::mt19937 rng(seed * 2246822519u + 3);
  for (size_t shards : {1u, 2u, 4u}) {
    const size_t route_batch_size =
        kRouteBatchSizes[std::uniform_int_distribution<size_t>(0, 2)(rng)];
    const auto sharded =
        RunSharded(scenario, events, shards, route_batch_size, lateness_bound);
    ASSERT_EQ(sharded.size(), reference.size())
        << "seed " << seed << " at " << shards << " shards, route_batch_size "
        << route_batch_size << ", lateness_bound " << lateness_bound;
    EXPECT_EQ(sharded, reference)
        << "seed " << seed << " at " << shards << " shards, route_batch_size "
        << route_batch_size << ", lateness_bound " << lateness_bound;
  }
}

constexpr char kSeqDdl[] = R"sql(
  CREATE STREAM C1(readerid, tagid, tagtime);
  CREATE STREAM C2(readerid, tagid, tagtime);
  CREATE STREAM C3(readerid, tagid, tagtime);
)sql";

// Tag-partitionable SEQ(C1, C2, C3): pairwise tagid equality keeps every
// match inside one partition.
Scenario PartitionedSeq(const std::string& mode_clause,
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

class ShardedDifferentialTest
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ShardedDifferentialTest, PartitionedSeqAcrossModesAndWindows) {
  const uint32_t seed = GetParam();
  for (const char* mode : {"", " MODE RECENT", " MODE CHRONICLE"}) {
    for (const char* window : {"", " OVER [60 SECONDS PRECEDING C3]"}) {
      ExpectDifferentialEquivalence(PartitionedSeq(mode, window),
                                    seed ^ 0x9e3779b9u, 300, 6);
    }
  }
}

TEST_P(ShardedDifferentialTest, ConsecutiveRequiresSingleShardRouting) {
  // CONSECUTIVE adjacency is a property of the joint history across all
  // tags — only single-shard routing preserves it.
  Scenario s = PartitionedSeq(" MODE CONSECUTIVE", "");
  s.single_shard_streams = s.streams;
  ExpectDifferentialEquivalence(s, GetParam(), 300, 3);
}

TEST_P(ShardedDifferentialTest, ConsecutiveWindowedSingleShard) {
  Scenario s =
      PartitionedSeq(" MODE CONSECUTIVE", " OVER [30 SECONDS PRECEDING C3]");
  s.single_shard_streams = s.streams;
  ExpectDifferentialEquivalence(s, GetParam() + 17, 300, 3);
}

TEST_P(ShardedDifferentialTest, TrailingStarSingleShard) {
  // Star-group extension also depends on cross-tag interleaving in the
  // joint history: single-shard fallback, equivalence still required.
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
  ExpectDifferentialEquivalence(s, GetParam() + 101, 250, 4);
}

// Every test's seed derivation runs at both lateness bounds.
static_assert(RunsBothBounds([](uint32_t s) { return s; }));
static_assert(RunsBothBounds([](uint32_t s) { return s ^ 0x9e3779b9u; }));
static_assert(RunsBothBounds([](uint32_t s) { return s + 17; }));
static_assert(RunsBothBounds([](uint32_t s) { return s + 101; }));

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedDifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace eslev
