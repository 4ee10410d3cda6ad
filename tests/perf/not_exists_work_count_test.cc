// Work-count check (ctest label `perf`): the work the engine does per
// event on a fixed trace is deterministic, so it can gate a speed-up
// without timing anything. This replays a dense Example 1 dedup trace
// shaped like E19's `dedup_dense` (about 400 readings inside the 1 s
// window) and bounds the NOT EXISTS probe comparisons per outer tuple:
// a keyed probe walks one bucket, where a scan of the window would make
// about 280 comparisons per tuple on this trace.

#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "rfid/workloads.h"

namespace eslev {
namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TEST(NotExistsWorkCountTest, DenseDedupProbesOneBucket) {
  rfid::DuplicateWorkloadOptions o;
  o.num_distinct = 1000;
  o.duplicates_per_read = 1;
  o.inter_arrival = Milliseconds(5);
  o.duplicate_spread = Milliseconds(800);
  o.num_readers = 4;
  o.num_tags = 600;
  o.seed = 1;
  rfid::Workload trace = rfid::MakeDuplicateWorkload(o);
  rfid::NormalizeUniqueTimestamps(&trace);

  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM readings(reader_id, tag_id, read_time);
    CREATE STREAM cleaned_readings(reader_id, tag_id, read_time);
    INSERT INTO cleaned_readings
    SELECT * FROM readings AS r1
    WHERE NOT EXISTS
      (SELECT * FROM TABLE( readings OVER
          (RANGE 1 seconds PRECEDING CURRENT)) AS r2
       WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);
  )sql")
                  .ok());
  size_t emitted = 0;
  ASSERT_TRUE(engine
                  .Subscribe("cleaned_readings",
                             [&emitted](const Tuple&) { ++emitted; })
                  .ok());
  const auto gauge = [&engine](const std::string& stat) {
    int64_t sum = 0;
    for (const auto& [name, value] : engine.Metrics().gauges) {
      if (EndsWith(name, ".WindowedNotExists." + stat)) sum += value;
    }
    return sum;
  };
  for (size_t i = 0; i < trace.events.size(); ++i) {
    const rfid::TimedReading& e = trace.events[i];
    ASSERT_TRUE(engine.PushTuple(e.stream, e.tuple).ok());
    if (i == trace.events.size() / 2) {
      EXPECT_GT(gauge("window_buffer"), 300);  // the trace is window-dense
    }
  }
  EXPECT_EQ(emitted, trace.distinct_readings);

  uint64_t outer = 0;
  for (const auto& [name, value] : engine.Metrics().counters) {
    if (EndsWith(name, ".WindowedNotExists.tuples_in")) outer += value;
  }
  ASSERT_EQ(outer, trace.events.size());
  const int64_t comparisons = gauge("probe_comparisons");
  EXPECT_LE(comparisons, 2 * static_cast<int64_t>(outer))
      << comparisons << " probe comparisons for " << outer
      << " outer tuples";
}

}  // namespace
}  // namespace eslev
