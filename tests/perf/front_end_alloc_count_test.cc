// Allocation-count check (ctest label `perf`) for the serial front end
// that every pushed read crosses before a shard worker sees it: the WAL
// append, the ingest reorder and cleaning stages, and their delivery.
// Like the other work counts it needs no timing: for a fixed trace the
// number of heap allocations is deterministic, so this binary replaces
// the global `operator new` with a counting one (this binary only) and
// pins allocations per WAL record, per tuple offered to ingest, and per
// input of one Engine running ingest, the WAL and the Example 1 dedup.
//
// The trace has E19 `sharded_fullpath`'s shape at a tenth of its size:
// every read duplicated, 25 % ghost reads, arrival displaced by up to
// 400 ms, a heartbeat every 64 inputs; ingest reorders within 400 ms and
// cleans with a 1 ms window and `min_read_count` 2. The first inputs of
// each replay are a warm-up, so buffers that grow to their steady size
// once are not counted.
//
// The counting operator is tests/perf/alloc_counter.h's; under ASan and
// TSan only the allocation assertions are skipped.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/engine.h"
#include "ingest/ingest_pipeline.h"
#include "recovery/wal.h"
#include "rfid/workloads.h"
#include "tests/perf/alloc_counter.h"

namespace eslev {
namespace {

// Inputs replayed before counting starts.
constexpr size_t kWarmupInputs = 1000;
constexpr size_t kHeartbeatEvery = 64;

// The pins (allocations per unit, counted after the warm-up).
constexpr double kMaxPerWalRecord = 0.0;
constexpr double kMaxPerOfferedTuple = 0.0;
constexpr double kMaxPerEngineInput = 0.05;

rfid::Workload FullpathTrace() {
  rfid::DuplicateWorkloadOptions o;
  o.num_distinct = 3000;
  o.duplicates_per_read = 0;  // the noise owns duplication
  o.inter_arrival = Milliseconds(100);
  o.num_readers = 4;
  o.num_tags = 100;
  o.seed = 1;
  rfid::Workload trace = rfid::MakeDuplicateWorkload(o);
  rfid::NormalizeUniqueTimestamps(&trace);
  rfid::NoiseOptions noise;
  noise.max_shift = Milliseconds(400);
  noise.duplicate_rate = 1.0;  // every real read reaches min_read_count
  noise.duplicate_copies = 1;
  noise.spurious_rate = 0.25;
  noise.seed = 2;
  rfid::InjectNoise(&trace, noise);
  return trace;
}

IngestOptions FullpathIngest() {
  IngestOptions options;
  options.lateness_bound = Milliseconds(400);
  options.smoothing_window = Milliseconds(1);
  options.min_read_count = 2;
  return options;
}

/// Drives `push(i)` for every input and `tick(max_ts)` every
/// kHeartbeatEvery inputs; counts allocations from input kWarmupInputs
/// on. `units` is the number of counted inputs.
template <typename Push, typename Tick>
AllocCount Replay(const rfid::Workload& trace, Push push, Tick tick) {
  AllocCount count;
  Timestamp max_ts = kMinTimestamp;
  for (size_t i = 0; i < trace.events.size(); ++i) {
    if (i == kWarmupInputs) StartCounting();
    max_ts = std::max(max_ts, trace.events[i].tuple.ts());
    push(i);
    if ((i + 1) % kHeartbeatEvery == 0) tick(max_ts);
    if (i >= kWarmupInputs) ++count.units;
  }
  count.allocations = StopCounting();
  return count;
}

struct FrontEndCounts {
  AllocCount wal;     // units: WAL records (tuples and heartbeats)
  AllocCount ingest;  // units: tuples offered to the pipeline
  AllocCount engine;  // units: Engine inputs (PushTuple calls)
  uint64_t released = 0;
  uint64_t emitted = 0;
  double wal_bytes_per_record = 0;
};

FrontEndCounts ReplayFrontEnd(const rfid::Workload& trace) {
  FrontEndCounts out;
  const Timestamp final_time =
      trace.events.back().tuple.ts() + Seconds(2);

  // 1. The WAL on its own: one record per input plus one per heartbeat.
  {
    const std::string path = ::testing::TempDir() + "alloc_count_wal.log";
    std::remove(path.c_str());
    auto writer = WalWriter::Open(path, 1);
    EXPECT_TRUE(writer.ok()) << writer.status();
    uint64_t counted_heartbeats = 0;
    size_t pushed = 0;
    out.wal = Replay(
        trace,
        [&](size_t i) {
          pushed = i + 1;
          EXPECT_TRUE(
              (*writer)->AppendTuple("readings", trace.events[i].tuple).ok());
        },
        [&](Timestamp ts) {
          if (pushed > kWarmupInputs) ++counted_heartbeats;
          EXPECT_TRUE((*writer)->AppendHeartbeat(ts).ok());
        });
    out.wal.units += counted_heartbeats;
    EXPECT_TRUE((*writer)->Flush().ok());
    out.wal_bytes_per_record =
        static_cast<double>((*writer)->bytes_written()) /
        static_cast<double>((*writer)->records_appended());
    writer->reset();
    std::remove(path.c_str());
  }

  // 2. The ingest pipeline on its own, releasing into a counter.
  {
    IngestPipeline pipeline(FullpathIngest());
    pipeline.BindDelivery(
        [&out](size_t, const Tuple&) {
          ++out.released;
          return Status::OK();
        },
        [](Timestamp) { return Status::OK(); });
    const size_t port = pipeline.PortFor("readings");
    out.ingest = Replay(
        trace,
        [&](size_t i) {
          EXPECT_TRUE(pipeline.Offer(port, trace.events[i].tuple).ok());
        },
        [&](Timestamp ts) { EXPECT_TRUE(pipeline.Heartbeat(ts).ok()); });
    EXPECT_TRUE(pipeline.Heartbeat(final_time).ok());
  }

  // 3. One Engine with ingest, the WAL and Example 1's dedup.
  {
    const std::string path = ::testing::TempDir() + "alloc_count_engine.log";
    std::remove(path.c_str());
    EngineOptions options;
    options.ingest = FullpathIngest();
    Engine engine(options);
    EXPECT_TRUE(engine
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
    EXPECT_TRUE(engine
                    .Subscribe("cleaned_readings",
                               [&out](const Tuple&) { ++out.emitted; })
                    .ok());
    EXPECT_TRUE(engine.EnableWal(path).ok());
    out.engine = Replay(
        trace,
        [&](size_t i) {
          EXPECT_TRUE(engine.PushTuple(trace.events[i].stream,
                                       trace.events[i].tuple)
                          .ok());
        },
        [&](Timestamp ts) { EXPECT_TRUE(engine.AdvanceTime(ts).ok()); });
    EXPECT_TRUE(engine.AdvanceTime(final_time).ok());
    std::remove(path.c_str());
  }
  return out;
}

TEST(FrontEndAllocCountTest, WalIngestAndEngineInputStayUnderPins) {
  const rfid::Workload trace = FullpathTrace();
  ASSERT_GT(trace.events.size(), 2 * kWarmupInputs);

  const FrontEndCounts first = ReplayFrontEnd(trace);
  const FrontEndCounts second = ReplayFrontEnd(trace);

  // Cleaning restores the clean trace exactly (every real read has two
  // copies, ghosts one), and a (reader, tag) key recurs only after 10 s,
  // so the dedup passes every cleaned read.
  EXPECT_EQ(first.released, trace.distinct_readings);
  EXPECT_EQ(first.emitted, trace.distinct_readings);
  EXPECT_EQ(second.emitted, first.emitted);

  if (!kCountingAllocations) {
    GTEST_SKIP() << "operator new is the sanitizer's here; allocation "
                    "counts are checked in unsanitized builds";
  }
  std::printf(
      "allocations: %.3f per WAL record (%llu / %llu), %.3f per offered "
      "tuple (%llu / %llu), %.3f per engine input (%llu / %llu); "
      "%.3f WAL bytes per record\n",
      first.wal.PerUnit(),
      static_cast<unsigned long long>(first.wal.allocations),
      static_cast<unsigned long long>(first.wal.units),
      first.ingest.PerUnit(),
      static_cast<unsigned long long>(first.ingest.allocations),
      static_cast<unsigned long long>(first.ingest.units),
      first.engine.PerUnit(),
      static_cast<unsigned long long>(first.engine.allocations),
      static_cast<unsigned long long>(first.engine.units),
      first.wal_bytes_per_record);
  // Deterministic: a second replay makes exactly the same allocations.
  EXPECT_EQ(first.wal, second.wal);
  EXPECT_EQ(first.ingest, second.ingest);
  EXPECT_EQ(first.engine, second.engine);

  EXPECT_GT(first.wal.units, 0u);
  EXPECT_LE(first.wal.PerUnit(), kMaxPerWalRecord);
  EXPECT_LE(first.ingest.PerUnit(), kMaxPerOfferedTuple);
  EXPECT_LE(first.engine.PerUnit(), kMaxPerEngineInput);
}

}  // namespace
}  // namespace eslev
