// Mailbox-batching differential sweep (DESIGN.md §8): a routed tuple
// does not wake its shard's worker, which takes its whole backlog at
// the next heartbeat, command, Flush or drain, or at 64 queued items, so
// how many tuples one wake-up carries depends on when those come. On
// seeded random traces, ShardedEngine at 1/2/4 shards must emit the
// single-engine output, and with a Flush every 7, 64 or 1024 events
// exactly the drain sequence it emits with a Flush after every event
// (each tuple processed alone), across dedup, SEQ pairing modes, windows
// and trailing stars. Every seeded run draws the ingest reorder stage's
// lateness bound from {0, 400 ms}, which must not change a byte either.
// A killed shard drops the tuples queued in its mailbox that no wake-up
// reached; the WAL holds them, so its promoted standby replays them.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <string>

#include "tests/property/differential_harness.h"

namespace eslev {
namespace {

/// Flush cadences: after every event, one that splits runs unevenly, the
/// wake threshold, and one longer than any trace (only the mailbox's own
/// 64-item wake-ups and the closing flush).
constexpr size_t kFlushEvery[] = {1, 7, 64, 1024};

/// The scenario on a ShardedEngine that flushes after every
/// `flush_every` events; rows in drain order.
Rows RunFlushingEvery(const Scenario& s, const Trace& events,
                      const ShardedEngineOptions& options,
                      size_t flush_every) {
  ShardedEngine host(options);
  Rows rows;
  Attach(host, s, &rows);
  for (size_t i = 0; i < events.size(); ++i) {
    const Status pushed = PushEvent(host, events[i]);
    EXPECT_TRUE(pushed.ok()) << "event " << i << ": " << pushed;
    if ((i + 1) % flush_every == 0) {
      EXPECT_TRUE(host.Flush().ok());
    }
  }
  Close(host, s, events);
  return rows;
}

void ExpectBatchEquivalence(const Scenario& scenario, uint32_t seed,
                            size_t num_events, int num_tags) {
  const Trace events = MakeTrace(seed, num_events, scenario.streams, num_tags);
  const EngineOptions engine = IngestOptionsWith(LatenessBoundFor(seed));
  // Sorted: a sharded run emits the same set, merged across shards.
  const Rows reference = Sorted(RunEngine(scenario, events, engine));
  std::mt19937 rng(seed * 2246822519u + 3);
  for (size_t shards : {1u, 2u, 4u}) {
    const ShardedEngineOptions options = ShardOptions(shards, engine);
    // Unsorted: the drain order of one shard count does not depend on
    // how many tuples a wake-up carries.
    const Rows one_at_a_time = RunFlushingEvery(scenario, events, options, 1);
    EXPECT_EQ(Sorted(one_at_a_time), reference)
        << "seed " << seed << " shards " << shards << " lateness_bound "
        << engine.ingest.lateness_bound;
    // One drawn cadence per shard count keeps the sweep cheap while
    // still crossing sharding with batching on every run.
    const size_t flush_every =
        kFlushEvery[std::uniform_int_distribution<size_t>(1, 3)(rng)];
    EXPECT_EQ(RunFlushingEvery(scenario, events, options, flush_every),
              one_at_a_time)
        << "seed " << seed << " shards " << shards << " flush_every "
        << flush_every << " lateness_bound " << engine.ingest.lateness_bound;
  }
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
    ExpectBatchEquivalence(SeqScenario(mode),
                           seed * 31u + static_cast<uint32_t>(i++), 240, 5);
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

uint64_t Counter(const MetricsSnapshot& snap, const std::string& key) {
  auto it = snap.counters.find(key);
  EXPECT_NE(it, snap.counters.end()) << key;
  return it == snap.counters.end() ? 0 : it->second;
}

// Kill mid-batch: a ReplicatedShardedEngine flushes, then routes a short
// tail of reads (fewer than 64, no heartbeat), so the tail sits in the
// mailboxes with no wake-up, and the shard of the tail's first read is
// killed. KillShard drops its mailbox; the tail is in the WAL, so the
// promoted standby replays it along with the reads of the dark window.
// The victim's wake-up counter shows that nothing but the kill woke it
// after the flush, and the output must equal the single-engine run.
TEST_P(BatchDifferentialTest, KillRecoverMidBatch) {
  const uint32_t seed = GetParam();
  const Scenario scenario = SeqScenario(" MODE CHRONICLE");
  const Trace events = MakeTrace(seed + 59, 200, scenario.streams, 4);
  const Rows reference = Sorted(RunEngine(scenario, events));
  std::mt19937 rng(seed * 40503u + 11);
  int round = 0;
  for (size_t shards : {1u, 2u, 4u}) {
    const size_t checkpoint_at =
        std::uniform_int_distribution<size_t>(1, events.size() / 2)(rng);
    const size_t flush_at = std::uniform_int_distribution<size_t>(
        checkpoint_at, events.size() - 2)(rng);
    const size_t kill_at = std::min(
        events.size(),
        flush_at + std::uniform_int_distribution<size_t>(1, 16)(rng));
    const size_t resume_at =
        std::uniform_int_distribution<size_t>(kill_at, events.size())(rng);
    // The tail's first read routes by its tag, the default partition key.
    const size_t victim = events[flush_at].values[1].Hash() % shards;
    const std::string context =
        "seed " + std::to_string(seed) + " shards " + std::to_string(shards) +
        " ckpt_at " + std::to_string(checkpoint_at) + " flush_at " +
        std::to_string(flush_at) + " kill_at " + std::to_string(kill_at) +
        " resume_at " + std::to_string(resume_at) + " victim " +
        std::to_string(victim);

    const std::string dir = FreshDir("batch_diff_kill_s" +
                                     std::to_string(seed) + "_r" +
                                     std::to_string(round++));
    ReplicatedShardedEngineOptions options;
    options.num_shards = shards;
    options.dir = dir;
    options.wal.group_commit_bytes = 0;  // every append durable at the kill
    auto opened = ReplicatedShardedEngine::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    ReplicatedShardedEngine& engine = **opened;
    Rows rows;
    Attach(engine, scenario, &rows);
    PushEvents(engine, events, 0, checkpoint_at);
    const Status ckpt = engine.Checkpoint();
    ASSERT_TRUE(ckpt.ok()) << ckpt;
    PushEvents(engine, events, checkpoint_at, flush_at);
    Settle(engine);
    // Metrics() reads the wake-up counters before its own round trip
    // wakes every shard once; the Flush after it leaves every worker
    // asleep on an empty mailbox.
    auto before = engine.Metrics();
    ASSERT_TRUE(before.ok()) << before.status();
    ASSERT_TRUE(engine.Flush().ok());
    PushEvents(engine, events, flush_at, kill_at);
    ASSERT_TRUE(engine.KillShard(victim).ok());
    auto after = engine.Metrics();
    ASSERT_TRUE(after.ok()) << after.status();
    const std::string prefix = "sharded.shard" + std::to_string(victim) + ".";
    EXPECT_GT(Counter(*after, prefix + "tuples_routed"),
              Counter(*before, prefix + "tuples_routed"))
        << context;
    EXPECT_EQ(Counter(*after, prefix + "wakeups"),
              Counter(*before, prefix + "wakeups") + 2)
        << "the round trip and the kill should be the victim's only "
           "wake-ups; "
        << context;

    PushEvents(engine, events, kill_at, resume_at);
    auto healed = engine.HealFailures();
    ASSERT_TRUE(healed.ok()) << healed.status();
    EXPECT_EQ(*healed, 1u) << context;
    PushEvents(engine, events, resume_at, events.size());
    Close(engine, scenario, events);
    EXPECT_EQ(Sorted(rows), reference) << context;
    std::filesystem::remove_all(dir);
  }
}

// Every equivalence test's seed derivation runs at both lateness bounds
// (a loop index added to a derivation shifts all three seeds alike).
// The kill test runs without ingest: ReplicatedShardedEngine rejects it.
static_assert(RunsBothBounds([](uint32_t s) { return s ^ 0x85ebca6bu; }));
static_assert(RunsBothBounds([](uint32_t s) { return s * 31u; }));
static_assert(RunsBothBounds([](uint32_t s) { return s + 7; }));
static_assert(RunsBothBounds([](uint32_t s) { return s + 101; }));

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace eslev
