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

#include <random>
#include <string>

#include "tests/property/differential_harness.h"

namespace eslev {
namespace {

void ExpectDifferentialEquivalence(const Scenario& scenario, uint32_t seed,
                                   size_t num_events, int num_tags) {
  const Trace events = MakeTrace(seed, num_events, scenario.streams, num_tags);
  const Duration lateness_bound = LatenessBoundFor(seed);
  const Rows reference =
      Sorted(RunEngine(scenario, events, IngestOptionsWith(lateness_bound)));
  std::mt19937 rng(seed * 2246822519u + 3);
  for (size_t shards : {1u, 2u, 4u}) {
    const size_t route_batch_size = DrawRouteBatchSize(rng);
    const Rows sharded = Sorted(
        RunSharded(scenario, events,
                   ShardOptions(shards, route_batch_size,
                                IngestOptionsWith(lateness_bound))));
    ASSERT_EQ(sharded.size(), reference.size())
        << "seed " << seed << " at " << shards << " shards, route_batch_size "
        << route_batch_size << ", lateness_bound " << lateness_bound;
    EXPECT_EQ(sharded, reference)
        << "seed " << seed << " at " << shards << " shards, route_batch_size "
        << route_batch_size << ", lateness_bound " << lateness_bound;
  }
}

class ShardedDifferentialTest
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ShardedDifferentialTest, PartitionedSeqAcrossModesAndWindows) {
  const uint32_t seed = GetParam();
  for (const char* mode : {"", " MODE RECENT", " MODE CHRONICLE"}) {
    for (const char* window : {"", " OVER [60 SECONDS PRECEDING C3]"}) {
      ExpectDifferentialEquivalence(SeqScenario(mode, window),
                                    seed ^ 0x9e3779b9u, 300, 6);
    }
  }
}

TEST_P(ShardedDifferentialTest, ConsecutiveRequiresSingleShardRouting) {
  // CONSECUTIVE adjacency is a property of the joint history across all
  // tags — only single-shard routing preserves it.
  ExpectDifferentialEquivalence(SeqScenario(" MODE CONSECUTIVE"), GetParam(),
                                300, 3);
}

TEST_P(ShardedDifferentialTest, ConsecutiveWindowedSingleShard) {
  ExpectDifferentialEquivalence(
      SeqScenario(" MODE CONSECUTIVE", " OVER [30 SECONDS PRECEDING C3]"),
      GetParam() + 17, 300, 3);
}

TEST_P(ShardedDifferentialTest, TrailingStarSingleShard) {
  // Star-group extension also depends on cross-tag interleaving in the
  // joint history: single-shard fallback, equivalence still required.
  ExpectDifferentialEquivalence(StarScenario(), GetParam() + 101, 250, 4);
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
