// Wake-up count check (ctest label `perf`) for the shard mailbox's wake
// rule (DESIGN.md §8): a routed tuple does not wake its shard's worker;
// a heartbeat or worker command, a Flush or DrainOutputs, or the 64th
// queued item does, once per sleep. So on any thread schedule each
// shard's `sharded.shard<i>.wakeups` grows by at most
//   control items + publishes + routed tuples / 64,
// which this test asserts on a replay of E19 `sharded_fullpath`'s shape
// (tests/perf/fullpath_trace.h): 3 shards, ingest and the WAL on, a
// heartbeat every 64 inputs, and a Flush plus a DrainOutputs every 256.
// It prints wake-ups per routed tuple next to mailbox pushes per routed
// tuple, which is what a worker woken by every push would cost.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/mpsc_queue.h"
#include "core/sharded_engine.h"
#include "tests/perf/fullpath_trace.h"

namespace eslev {
namespace {

constexpr size_t kShards = 3;
constexpr size_t kHeartbeatEvery = 64;
constexpr size_t kPollEvery = 256;
constexpr uint64_t kWakeThreshold = MpscQueue<int>::kWakeThreshold;

struct ShardCounts {
  std::vector<uint64_t> wakeups;
  std::vector<uint64_t> routed;
};

/// Read before the snapshot's own round trip wakes every shard once.
ShardCounts ReadCounts(ShardedEngine& engine) {
  ShardCounts counts;
  auto snap = engine.Metrics();
  EXPECT_TRUE(snap.ok()) << snap.status();
  for (size_t i = 0; i < kShards; ++i) {
    const std::string prefix = "sharded.shard" + std::to_string(i) + ".";
    counts.wakeups.push_back(snap.ok() ? snap->counters.at(prefix + "wakeups")
                                       : 0);
    counts.routed.push_back(
        snap.ok() ? snap->counters.at(prefix + "tuples_routed") : 0);
  }
  return counts;
}

TEST(ShardWakeupCountTest, WakeupsStayWithinTheRuleOnTheFullpathShape) {
  const rfid::Workload trace = FullpathTrace();
  ShardedEngineOptions options;
  options.num_shards = kShards;
  options.engine.ingest = FullpathIngest();
  ShardedEngine engine(options);
  ASSERT_TRUE(engine.ExecuteScript(kFullpathDedupScript).ok());
  uint64_t emitted = 0;
  ASSERT_TRUE(engine
                  .Subscribe("cleaned_readings",
                             [&emitted](const Tuple&) { ++emitted; })
                  .ok());
  const std::string wal = ::testing::TempDir() + "shard_wakeup_count.log";
  std::remove(wal.c_str());
  ASSERT_TRUE(engine.EnableWal(wal).ok());

  ASSERT_TRUE(engine.Flush().ok());
  const ShardCounts before = ReadCounts(engine);
  // Per shard: the snapshot's command, then one heartbeat item at most
  // per AdvanceTime, and one publish per Flush and per DrainOutputs.
  const uint64_t commands = 1;
  uint64_t ticks = 0;
  uint64_t publishes = 0;
  const auto poll = [&] {
    ASSERT_TRUE(engine.Flush().ok());
    engine.DrainOutputs();
    publishes += 2;
  };
  Timestamp max_ts = kMinTimestamp;
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const auto& e = trace.events[i];
    max_ts = std::max(max_ts, e.tuple.ts());
    ASSERT_TRUE(engine.PushTuple(e.stream, e.tuple).ok());
    if ((i + 1) % kHeartbeatEvery == 0) {
      ASSERT_TRUE(engine.AdvanceTime(max_ts).ok());
      ++ticks;
    }
    if ((i + 1) % kPollEvery == 0) poll();
  }
  ASSERT_TRUE(engine.AdvanceTime(max_ts + Seconds(2)).ok());
  ++ticks;
  poll();
  const ShardCounts after = ReadCounts(engine);
  std::remove(wal.c_str());

  // Cleaning restores the clean trace, and the dedup passes every read.
  EXPECT_EQ(emitted, trace.distinct_readings);

  uint64_t wakeups = 0;
  uint64_t routed = 0;
  uint64_t bound = 0;
  for (size_t i = 0; i < kShards; ++i) {
    const uint64_t shard_wakeups = after.wakeups[i] - before.wakeups[i];
    const uint64_t shard_routed = after.routed[i] - before.routed[i];
    const uint64_t shard_bound =
        commands + ticks + publishes + shard_routed / kWakeThreshold;
    EXPECT_GT(shard_routed, 0u) << "shard " << i;
    EXPECT_LE(shard_wakeups, shard_bound)
        << "shard " << i << ": " << shard_routed << " routed, " << ticks
        << " ticks, " << publishes << " publishes";
    wakeups += shard_wakeups;
    routed += shard_routed;
    bound += shard_bound;
  }
  const uint64_t pushes = routed + kShards * (commands + ticks);
  const auto per_routed = [routed](uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(routed);
  };
  std::printf(
      "wake-ups: %.3f per routed tuple (%llu / %llu), bound %.3f; mailbox "
      "pushes, each a wake-up if every push woke its worker: %.3f\n",
      per_routed(wakeups), static_cast<unsigned long long>(wakeups),
      static_cast<unsigned long long>(routed), per_routed(bound),
      per_routed(pushes));
}

}  // namespace
}  // namespace eslev
