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

#include <filesystem>
#include <random>
#include <string>

#include "tests/property/differential_harness.h"

namespace eslev {
namespace {

void ExpectBatchEquivalence(const Scenario& scenario, uint32_t seed,
                            size_t num_events, int num_tags) {
  const Trace events = MakeTrace(seed, num_events, scenario.streams, num_tags);
  const EngineOptions engine = IngestOptionsWith(LatenessBoundFor(seed));
  // Sorted: a sharded run emits the same set, merged across shards.
  const Rows reference = Sorted(RunEngine(scenario, events, engine));
  std::mt19937 rng(seed * 2246822519u + 3);
  for (size_t shards : {1u, 2u, 4u}) {
    // Unsorted: the drain order of one shard count does not depend on
    // the route batch size.
    const Rows unbatched =
        RunSharded(scenario, events, ShardOptions(shards, 1, engine));
    EXPECT_EQ(Sorted(unbatched), reference)
        << "seed " << seed << " shards " << shards << " lateness_bound "
        << engine.ingest.lateness_bound;
    // One randomized route size per shard count keeps the sweep cheap
    // while still crossing sharding with batching on every run.
    const size_t route_batch_size =
        kRouteBatchSizes[std::uniform_int_distribution<size_t>(1, 3)(rng)];
    EXPECT_EQ(RunSharded(scenario, events,
                         ShardOptions(shards, route_batch_size, engine)),
              unbatched)
        << "seed " << seed << " shards " << shards << " route_batch_size "
        << route_batch_size << " lateness_bound "
        << engine.ingest.lateness_bound;
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

// Crash mid-batch: the sharded engine dies with tuples in a pending
// route batch — WAL-appended (durability precedes buffering) but never
// enqueued to their shard. The consumer acknowledged everything up to
// the checkpoint, so recovery at another route size re-delivers every
// emission after the cut, the never-enqueued tuples' included; the
// concatenation must equal the uninterrupted single-engine run.
TEST_P(BatchDifferentialTest, KillRecoverMidBatch) {
  const uint32_t seed = GetParam();
  const Scenario scenario = SeqScenario(" MODE CHRONICLE");
  const Trace events = MakeTrace(seed + 59, 200, scenario.streams, 4);
  const EngineOptions engine = IngestOptionsWith(LatenessBoundFor(seed + 59));
  const Rows reference = Sorted(RunEngine(scenario, events, engine));
  std::mt19937 rng(seed * 40503u + 11);
  int round = 0;
  for (size_t shards : {1u, 2u, 4u}) {
    const size_t pick = std::uniform_int_distribution<size_t>(1, 3)(rng);
    const size_t route_batch_size = kRouteBatchSizes[pick];
    // Recover at a different route size, tuple-at-a-time included.
    const size_t recover_route_batch_size =
        kRouteBatchSizes[(pick + std::uniform_int_distribution<size_t>(
                                     1, 3)(rng)) % 4];
    KillPlan plan;
    plan.checkpoint_at =
        std::uniform_int_distribution<size_t>(0, events.size() - 2)(rng);
    plan.kill_at = std::uniform_int_distribution<size_t>(plan.checkpoint_at + 1,
                                                         events.size())(rng);
    plan.consumer = Consumer::kHoldsCheckpoint;
    const std::string dir = FreshDir("batch_diff_kill_s" +
                                     std::to_string(seed) + "_r" +
                                     std::to_string(round++));
    const Rows killed = Sorted(RunKilled<ShardedEngine>(
        scenario, events, ShardOptions(shards, route_batch_size, engine),
        ShardOptions(shards, recover_route_batch_size, engine), plan, dir));
    EXPECT_EQ(killed, reference)
        << "seed " << seed << " shards " << shards << " route_batch "
        << route_batch_size << " recover_route_batch "
        << recover_route_batch_size << " ckpt_at " << plan.checkpoint_at
        << " kill_at " << plan.kill_at << " lateness_bound "
        << engine.ingest.lateness_bound;
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
