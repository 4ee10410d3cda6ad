// Allocation-count check (ctest label `perf`) for operands read in place
// (DESIGN.md §5 "Operands read in place") over tag ids as long as real
// EPCs. A tag id here is a 36-byte SGTIN URI
// (`urn:epc:id:sgtin:0614141.107346.NNNN`), longer than libstdc++'s
// 15-byte inline string buffer, so every copy of a tag-id Value
// allocates; with the short tags of the other slices a copy never does,
// and they cannot see whether a probe or a predicate copies its
// operands.
//
// Three replays, one Engine each, a heartbeat every 64 inputs: Example
// 1's dedup over E19 `dedup_dense`'s trace shape (the keyed NOT EXISTS
// probe), a `tag_id = '<EPC>'` filter over the same trace (a column
// compared with a literal), and Example 6 in CHRONICLE over the quality
// line (SEQ pairwise `tagid` conjuncts). Each pins heap allocations per
// input, counted after a warm-up with tests/perf/alloc_counter.h's
// counting `operator new` (this binary only; under ASan and TSan only
// the allocation assertions are skipped).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "core/engine.h"
#include "rfid/workloads.h"
#include "tests/perf/alloc_counter.h"
#include "tests/perf/fullpath_trace.h"

namespace eslev {
namespace {

// Inputs replayed before counting starts.
constexpr size_t kWarmupInputs = 1000;
constexpr size_t kHeartbeatEvery = 64;

// The pins (allocations per counted input). Copying the outer key, or
// the column and the literal of a comparison, would add one allocation
// per copied tag id.
constexpr double kMaxPerDedupInput = 0.1;
constexpr double kMaxPerFilterInput = 0.0;
constexpr double kMaxPerSeqInput = 2.7;

/// The tag id numbered `serial` as a 36-byte SGTIN URI.
std::string Epc(size_t serial) {
  char digits[8];
  std::snprintf(digits, sizeof(digits), "%04zu", serial % 10000);
  return std::string("urn:epc:id:sgtin:0614141.107346.") + digits;
}

/// `trace` with every tag id (column 1) replaced by an EPC, numbered in
/// order of first appearance.
rfid::Workload WithEpcTags(const rfid::Workload& trace) {
  rfid::Workload out = trace;
  std::map<std::string, size_t> serials;
  for (rfid::TimedReading& e : out.events) {
    const Tuple& t = e.tuple;
    const size_t serial =
        serials.emplace(t.value(1).string_value(), serials.size())
            .first->second;
    e.tuple = *MakeTuple(
        t.schema(), {t.value(0), Value::String(Epc(serial)), t.value(2)},
        t.ts());
  }
  return out;
}

/// E19 `dedup_dense`'s shape: two copies of each read, about 400 reads
/// inside the 1 s window.
rfid::Workload DedupTrace() {
  rfid::DuplicateWorkloadOptions o;
  o.num_distinct = 2000;
  o.duplicates_per_read = 1;
  o.inter_arrival = Milliseconds(5);
  o.duplicate_spread = Milliseconds(800);
  o.num_readers = 4;
  o.num_tags = 600;
  o.seed = 1;
  rfid::Workload trace = rfid::MakeDuplicateWorkload(o);
  rfid::NormalizeUniqueTimestamps(&trace);
  return WithEpcTags(trace);
}

/// Example 6's quality line, a product every 10 ms.
rfid::Workload QualityTrace() {
  rfid::QualityCheckWorkloadOptions q;
  q.num_products = 1500;
  q.stage_delay = Milliseconds(200);
  q.product_interval = Milliseconds(10);
  q.drop_rate = 0.05;
  q.seed = 4;
  rfid::Workload trace = rfid::MakeQualityCheckWorkload(q);
  rfid::NormalizeUniqueTimestamps(&trace);
  return WithEpcTags(trace);
}

struct SliceCount {
  AllocCount per_input;
  uint64_t emitted = 0;
};

/// Builds an Engine from `script`, subscribes to `output`, and replays
/// `trace` with a heartbeat every kHeartbeatEvery inputs, counting
/// allocations from input kWarmupInputs on. Bare SELECTs in `script`
/// are registered as queries; `output` may name their `_q<id>` stream.
SliceCount ReplaySlice(const rfid::Workload& trace, const std::string& script,
                       const std::string& output) {
  SliceCount out;
  Engine engine;
  EXPECT_TRUE(engine.ExecuteScript(script).ok());
  EXPECT_TRUE(
      engine.Subscribe(output, [&out](const Tuple&) { ++out.emitted; }).ok());
  Timestamp max_ts = kMinTimestamp;
  for (size_t i = 0; i < trace.events.size(); ++i) {
    if (i == kWarmupInputs) StartCounting();
    const rfid::TimedReading& e = trace.events[i];
    max_ts = std::max(max_ts, e.tuple.ts());
    EXPECT_TRUE(engine.PushTuple(e.stream, e.tuple).ok());
    if ((i + 1) % kHeartbeatEvery == 0) {
      EXPECT_TRUE(engine.AdvanceTime(max_ts).ok());
    }
    if (i >= kWarmupInputs) ++out.per_input.units;
  }
  out.per_input.allocations = StopCounting();
  EXPECT_TRUE(engine.AdvanceTime(max_ts + Seconds(2)).ok());
  return out;
}

constexpr char kQualityScript[] = R"sql(
  CREATE STREAM C1(readerid, tagid, tagtime);
  CREATE STREAM C2(readerid, tagid, tagtime);
  CREATE STREAM C3(readerid, tagid, tagtime);
  CREATE STREAM C4(readerid, tagid, tagtime);
  SELECT C4.tagid, C1.tagtime, C4.tagtime FROM C1, C2, C3, C4
  WHERE SEQ(C1, C2, C3, C4) OVER [1 SECONDS PRECEDING C4] MODE CHRONICLE
    AND C1.tagid = C2.tagid AND C2.tagid = C3.tagid
    AND C3.tagid = C4.tagid;
)sql";

void PrintCount(const char* name, const AllocCount& c) {
  std::printf("allocations: %.3f per %s input (%llu / %llu)\n", c.PerUnit(),
              name, static_cast<unsigned long long>(c.allocations),
              static_cast<unsigned long long>(c.units));
}

TEST(EpcKeyAllocCountTest, OperandsAreReadInPlace) {
  const rfid::Workload dedup_trace = DedupTrace();
  const rfid::Workload quality_trace = QualityTrace();
  ASSERT_GT(dedup_trace.events.size(), 2 * kWarmupInputs);
  ASSERT_GT(quality_trace.events.size(), 2 * kWarmupInputs);
  ASSERT_EQ(dedup_trace.events[0].tuple.value(1).string_value().size(), 36u);

  const std::string tag = Epc(7);
  const uint64_t tag_reads = static_cast<uint64_t>(std::count_if(
      dedup_trace.events.begin(), dedup_trace.events.end(),
      [&tag](const rfid::TimedReading& e) {
        return e.tuple.value(1).string_value() == tag;
      }));
  ASSERT_GT(tag_reads, 0u);
  const std::string filter_script =
      "CREATE STREAM readings(reader_id, tag_id, read_time);"
      "CREATE STREAM matched(reader_id, tag_id, read_time);"
      "INSERT INTO matched SELECT * FROM readings WHERE tag_id = '" +
      tag + "';";

  SliceCount dedup[2];
  SliceCount filter[2];
  SliceCount seq[2];
  for (int run = 0; run < 2; ++run) {
    dedup[run] =
        ReplaySlice(dedup_trace, kFullpathDedupScript, "cleaned_readings");
    filter[run] = ReplaySlice(dedup_trace, filter_script, "matched");
    seq[run] = ReplaySlice(quality_trace, kQualityScript, "_q1");
  }

  // The replays compute what they should: the dedup passes one copy of
  // every read, the filter every read of its tag, and Example 6 every
  // product that passed all four stages (each within the 1 s window).
  EXPECT_EQ(dedup[0].emitted, dedup_trace.distinct_readings);
  EXPECT_EQ(filter[0].emitted, tag_reads);
  EXPECT_EQ(seq[0].emitted, quality_trace.expected_events);

  if (!kCountingAllocations) {
    GTEST_SKIP() << "operator new is the sanitizer's here; allocation "
                    "counts are checked in unsanitized builds";
  }
  PrintCount("dedup", dedup[0].per_input);
  PrintCount("filter", filter[0].per_input);
  PrintCount("Example 6", seq[0].per_input);
  // Deterministic: a second replay makes exactly the same allocations.
  EXPECT_EQ(dedup[0].per_input, dedup[1].per_input);
  EXPECT_EQ(filter[0].per_input, filter[1].per_input);
  EXPECT_EQ(seq[0].per_input, seq[1].per_input);

  EXPECT_LE(dedup[0].per_input.PerUnit(), kMaxPerDedupInput);
  EXPECT_LE(filter[0].per_input.PerUnit(), kMaxPerFilterInput);
  EXPECT_LE(seq[0].per_input.PerUnit(), kMaxPerSeqInput);
}

}  // namespace
}  // namespace eslev
