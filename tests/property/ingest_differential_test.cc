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

#include <filesystem>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "rfid/workloads.h"
#include "tests/property/differential_harness.h"

namespace eslev {
namespace {

using rfid::InjectNoise;
using rfid::NoiseOptions;
using rfid::NoiseStats;
using rfid::Workload;

const Duration kMaxShift = Milliseconds(400);
const Duration kSmoothing = Milliseconds(1);

Trace ToTrace(const Workload& w) {
  Trace events;
  for (const auto& ev : w.events) {
    events.push_back({ev.stream, ev.tuple.values(), ev.tuple.ts()});
  }
  return events;
}

// The clean trace as an rfid::Workload, so the noise injector applies
// directly. Inter-arrival >= 50 ms keeps distinct same-key reads far
// outside the 1 ms smoothing window, so cleaning is an identity on the
// clean events once each is duplicated past min_read_count.
Workload MakeCleanWorkload(uint32_t seed, size_t num_events,
                           const std::vector<std::string>& streams,
                           int num_tags) {
  TraceOptions options;
  options.tag_first = true;
  Workload w;
  for (const Event& e :
       MakeTrace(seed, num_events, streams, num_tags, options)) {
    auto t = MakeTuple(rfid::ReaderSchema(), e.values, e.ts);
    EXPECT_TRUE(t.ok());
    w.events.push_back({e.stream, std::move(t).ValueUnsafe()});
  }
  rfid::NormalizeUniqueTimestamps(&w);
  return w;
}

Trace MakeNoisy(const Workload& clean, uint32_t seed) {
  Workload noisy = clean;
  NoiseOptions noise;
  noise.max_shift = kMaxShift;
  noise.duplicate_rate = 1.0;  // every event reaches min_read_count = 2
  noise.duplicate_copies = 1;
  noise.spurious_rate = 0.25;
  noise.drop_rate = 0.0;  // byte-identity: nothing may go missing
  noise.seed = seed;
  const NoiseStats stats = InjectNoise(&noisy, noise);
  EXPECT_LE(stats.max_disorder, kMaxShift);
  EXPECT_GT(stats.duplicates_added, 0u);
  return ToTrace(noisy);
}

EngineOptions NoisyOptions() {
  EngineOptions options;
  options.ingest.lateness_bound = kMaxShift;
  options.ingest.smoothing_window = kSmoothing;
  options.ingest.min_read_count = 2;
  return options;
}

// Bounded disorder through a covering lateness bound loses nothing.
void ExpectNoLateDrops(Engine& engine) {
  EXPECT_EQ(engine.ingest_pipeline()->reorder()->late_dropped(), 0u);
}

void ExpectCleanRelease(Engine& engine) {
  ExpectNoLateDrops(engine);
  EXPECT_GT(engine.ingest_pipeline()->cleaning()->dups_suppressed(), 0u);
}

void ExpectIngestEquivalence(const Scenario& scenario, uint32_t seed,
                             size_t num_events, int num_tags) {
  const Workload clean =
      MakeCleanWorkload(seed, num_events, scenario.streams, num_tags);
  const Trace noisy = MakeNoisy(clean, seed * 2654435761u + 1);

  // Exact emission order: single-engine equivalence is byte-for-byte.
  const Rows reference = RunEngine(scenario, ToTrace(clean));
  EXPECT_EQ(RunEngine(scenario, noisy, NoisyOptions(), ExpectCleanRelease),
            reference)
      << "seed " << seed;

  const Rows sorted_reference = Sorted(reference);
  std::mt19937 rng(seed * 2246822519u + 7);
  for (size_t shards : {1u, 2u, 4u}) {
    const size_t route_batch_size = DrawRouteBatchSize(rng);
    EXPECT_EQ(Sorted(RunSharded(
                  scenario, noisy,
                  ShardOptions(shards, route_batch_size, NoisyOptions()))),
              sorted_reference)
        << "seed " << seed << " shards " << shards << " route_batch_size "
        << route_batch_size;
  }
}

class IngestDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(IngestDifferentialTest, SeqAcrossPairingModes) {
  const uint32_t seed = GetParam();
  int i = 0;
  for (const char* mode :
       {"", " MODE RECENT", " MODE CHRONICLE", " MODE CONSECUTIVE"}) {
    ExpectIngestEquivalence(SeqScenario(mode),
                            seed * 31u + static_cast<uint32_t>(i++), 160, 5);
  }
}

TEST_P(IngestDifferentialTest, DedupWindowedNotExists) {
  ExpectIngestEquivalence(DedupScenario(), GetParam() ^ 0x85ebca6bu, 200, 5);
}

TEST_P(IngestDifferentialTest, TrailingStarGroups) {
  ExpectIngestEquivalence(StarScenario(), GetParam() + 101, 160, 4);
}

// ---- kill/recover with a non-empty reorder buffer -----------------------

// Crash with events buffered inside the ingest chain: raw arrivals are
// WAL-logged before they enter the pipeline, so recovery re-offers them
// through the restored ingest state and re-derives the identical
// release sequence. The consumer's durable emission count rides in
// `deliver_after`, so the concatenation of pre-crash and post-recovery
// deliveries must equal the clean uninterrupted run byte for byte.
TEST_P(IngestDifferentialTest, KillRecoverWithBufferedReorder) {
  const uint32_t seed = GetParam();
  const Scenario scenario = SeqScenario(" MODE CHRONICLE");
  const Workload clean =
      MakeCleanWorkload(seed + 59, 160, scenario.streams, 4);
  const Trace noisy = MakeNoisy(clean, seed * 40503u + 13);
  const Rows reference = RunEngine(scenario, ToTrace(clean));
  std::mt19937 rng(seed * 40503u + 11);
  for (int round = 0; round < 3; ++round) {
    KillPlan plan;
    plan.checkpoint_at =
        std::uniform_int_distribution<size_t>(1, noisy.size() - 1)(rng);
    plan.kill_at = std::uniform_int_distribution<size_t>(plan.checkpoint_at,
                                                         noisy.size())(rng);
    const std::string dir = FreshDir("ingest_diff_kill_s" +
                                     std::to_string(seed) + "_r" +
                                     std::to_string(round));
    // The kill target of this suite: the engine dies while the reorder
    // stage still holds undelivered events (any pushed event within the
    // lateness bound of the frontier is held back, so after at least
    // one push the buffer is never empty).
    const auto buffered_at_kill = [&plan](Engine& engine) {
      EXPECT_GT(engine.Metrics().gauges.at("ingest.reorder.depth"), 0)
          << "kill_at " << plan.kill_at;
    };
    const Rows killed =
        RunKilled<Engine>(scenario, noisy, NoisyOptions(), NoisyOptions(),
                          plan, dir, buffered_at_kill, ExpectNoLateDrops);
    EXPECT_EQ(killed, reference)
        << "seed " << seed << " ckpt_at " << plan.checkpoint_at
        << " kill_at " << plan.kill_at;
    std::filesystem::remove_all(dir);
  }
}

// Sharded front-end ingest: the pipeline sits ahead of hash
// partitioning and checkpoints into <dir>/ingest.state; the kill lands
// with raw arrivals buffered ahead of the shards.
TEST_P(IngestDifferentialTest, ShardedKillRecoverWithIngest) {
  const uint32_t seed = GetParam();
  const Scenario scenario = SeqScenario(" MODE CHRONICLE");
  const Workload clean =
      MakeCleanWorkload(seed + 97, 140, scenario.streams, 4);
  const Trace noisy = MakeNoisy(clean, seed * 69621u + 29);
  const Rows reference = Sorted(RunEngine(scenario, ToTrace(clean)));
  std::mt19937 rng(seed * 69621u + 31);
  std::mt19937 route_rng(seed * 2246822519u + 7);
  for (size_t shards : {2u, 4u}) {
    const ShardedEngineOptions options =
        ShardOptions(shards, DrawRouteBatchSize(route_rng), NoisyOptions());
    KillPlan plan;
    plan.checkpoint_at =
        std::uniform_int_distribution<size_t>(1, noisy.size() - 1)(rng);
    plan.kill_at = std::uniform_int_distribution<size_t>(plan.checkpoint_at,
                                                         noisy.size())(rng);
    const std::string dir = FreshDir("ingest_diff_shard_s" +
                                     std::to_string(seed) + "_n" +
                                     std::to_string(shards));
    const Rows killed = Sorted(RunKilled<ShardedEngine>(
        scenario, noisy, options, options, plan, dir));
    EXPECT_EQ(killed, reference)
        << "seed " << seed << " shards " << shards << " route_batch_size "
        << options.route_batch_size << " ckpt_at " << plan.checkpoint_at
        << " kill_at " << plan.kill_at;
    std::filesystem::remove_all(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IngestDifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace eslev
