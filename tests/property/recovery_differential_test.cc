// Kill-replay differential sweep (DESIGN.md §10 acceptance): on seeded
// random traces, crash the engine at a random point (after a checkpoint
// taken at another random point), recover from checkpoint + WAL suffix,
// feed the remaining trace, and require the concatenation of pre-crash
// and post-recovery emissions to be byte-identical to an uninterrupted
// run — across all four pairing modes, windowed SEQ, the trailing-star
// extension, EXCEPTION_SEQ deadline anchors, and ShardedEngine at
// 1/2/4 shards. Every kill-replay run (not the promote runs:
// ReplicatedShardedEngine rejects ingest) draws the ingest reorder
// stage's lateness bound from {0, 400 ms}, so recovery also runs with
// live reorder state.

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>

#include "tests/property/differential_harness.h"

namespace eslev {
namespace {

// An Engine's consumer receives every emission synchronously, so it
// holds all of them at the crash and recovery re-delivers none.
void ExpectKillReplayEquivalence(const Scenario& scenario, uint32_t seed,
                                 size_t num_events, int num_tags,
                                 const std::string& tag) {
  const Trace events = MakeTrace(seed, num_events, scenario.streams, num_tags);
  const EngineOptions engine = IngestOptionsWith(LatenessBoundFor(seed));
  const Rows reference = Sorted(RunEngine(scenario, events, engine));
  std::mt19937 rng(seed * 2654435761u + 1);
  for (int round = 0; round < 3; ++round) {
    KillPlan plan;
    plan.checkpoint_at =
        std::uniform_int_distribution<size_t>(0, num_events - 1)(rng);
    plan.kill_at = std::uniform_int_distribution<size_t>(plan.checkpoint_at,
                                                         num_events)(rng);
    const std::string dir =
        FreshDir("recovery_diff_" + tag + "_s" + std::to_string(seed) + "_r" +
                 std::to_string(round));
    const Rows killed = Sorted(
        RunKilled<Engine>(scenario, events, engine, engine, plan, dir));
    EXPECT_EQ(killed, reference)
        << tag << " seed " << seed << " ckpt_at " << plan.checkpoint_at
        << " kill_at " << plan.kill_at << " lateness_bound "
        << engine.ingest.lateness_bound;
    std::filesystem::remove_all(dir);
  }
}

class RecoveryDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RecoveryDifferentialTest, SeqAcrossAllPairingModes) {
  const uint32_t seed = GetParam();
  int i = 0;
  for (const char* mode :
       {"", " MODE RECENT", " MODE CHRONICLE", " MODE CONSECUTIVE"}) {
    ExpectKillReplayEquivalence(SeqScenario(mode), seed ^ 0x9e3779b9u, 160,
                                4, "mode" + std::to_string(i++));
  }
}

TEST_P(RecoveryDifferentialTest, WindowedSeq) {
  ExpectKillReplayEquivalence(
      SeqScenario(" MODE CHRONICLE", " OVER [30 SECONDS PRECEDING C3]"),
      GetParam() + 7, 160, 4, "windowed");
}

TEST_P(RecoveryDifferentialTest, TrailingStarGroups) {
  ExpectKillReplayEquivalence(StarScenario(), GetParam() + 101, 140, 3,
                              "star");
}

TEST_P(RecoveryDifferentialTest, ExceptionSeqDeadlinesSurviveTheCrash) {
  // Anchored 10-minute deadlines: many are open at the kill point, so
  // recovery must reconstruct them from the checkpoint (and WAL-replayed
  // heartbeats) for the tail heartbeat to fire the same violations.
  ExpectKillReplayEquivalence(ExceptionSeqScenario(), GetParam() + 211, 140,
                              4, "exception");
}

// ---- sharded: coordinated checkpoint + front-end WAL --------------------

TEST_P(RecoveryDifferentialTest, ShardedKillReplayAt124Shards) {
  const uint32_t seed = GetParam();
  const Scenario scenario = SeqScenario(" MODE CHRONICLE");
  const Trace events = MakeTrace(seed + 53, 160, scenario.streams, 4);
  const EngineOptions engine = IngestOptionsWith(LatenessBoundFor(seed + 53));
  std::mt19937 rng(seed * 40503u + 3);
  for (size_t shards : {1u, 2u, 4u}) {
    const ShardedEngineOptions options = ShardOptions(shards, engine);
    const Rows reference = Sorted(RunSharded(scenario, events, options));
    KillPlan plan;
    plan.checkpoint_at =
        std::uniform_int_distribution<size_t>(0, events.size() - 1)(rng);
    plan.kill_at = std::uniform_int_distribution<size_t>(plan.checkpoint_at,
                                                         events.size())(rng);
    const std::string dir =
        FreshDir("recovery_diff_sharded_s" + std::to_string(seed) + "_n" +
                 std::to_string(shards));
    const Rows killed = Sorted(RunKilled<ShardedEngine>(
        scenario, events, options, options, plan, dir));
    EXPECT_EQ(killed, reference)
        << shards << " shards, seed " << seed << " ckpt_at " << plan.checkpoint_at
        << " kill_at " << plan.kill_at << " lateness_bound "
        << engine.ingest.lateness_bound;
    std::filesystem::remove_all(dir);
  }
}

// ---- replicated: kill a primary shard, promote its hot standby ----------

// The failure-free sharded run is the reference: the promoted run must
// match it byte for byte after sorting. Both run at the same shard
// count, so every stream is hash-routed, CONSECUTIVE and stars included.
void ExpectKillPromoteEquivalence(Scenario scenario, uint32_t seed,
                                  size_t num_events, int num_tags,
                                  const std::string& tag) {
  scenario.single_shard_streams.clear();
  const Trace events = MakeTrace(seed, num_events, scenario.streams, num_tags);
  std::mt19937 rng(seed * 69621u + 5);
  for (size_t shards : {1u, 2u, 4u}) {
    const Rows reference =
        Sorted(RunSharded(scenario, events, ShardOptions(shards)));
    PromotePlan plan;
    plan.checkpoint_at =
        std::uniform_int_distribution<size_t>(1, num_events / 2)(rng);
    plan.kill_at = std::uniform_int_distribution<size_t>(plan.checkpoint_at,
                                                         num_events - 1)(rng);
    plan.resume_at =
        std::uniform_int_distribution<size_t>(plan.kill_at, num_events)(rng);
    plan.victim = std::uniform_int_distribution<size_t>(0, shards - 1)(rng);
    const std::string dir =
        FreshDir("recovery_diff_promote_" + tag + "_s" + std::to_string(seed) +
                 "_n" + std::to_string(shards));
    const Rows promoted =
        Sorted(RunPromoted(scenario, events, shards, plan, dir));
    EXPECT_EQ(promoted, reference)
        << tag << " shards " << shards << " seed " << seed << " ckpt_at "
        << plan.checkpoint_at << " kill_at " << plan.kill_at << " resume_at "
        << plan.resume_at << " victim " << plan.victim;
    std::filesystem::remove_all(dir);
  }
}

TEST_P(RecoveryDifferentialTest, PromoteAcrossAllPairingModes) {
  int i = 0;
  for (const char* mode :
       {"", " MODE RECENT", " MODE CHRONICLE", " MODE CONSECUTIVE"}) {
    ExpectKillPromoteEquivalence(SeqScenario(mode),
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
  ExpectKillPromoteEquivalence(ExceptionSeqScenario(), GetParam() + 503, 120,
                               4, "pexception");
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
