// Tests for E19's own arithmetic: percentiles, self time, the emission
// -> completing input mapping, trace fingerprints and the output check.
// Build and run: see e19/README.md.

#include <gtest/gtest.h>

#include <vector>

#include "e19/harness/stats.h"
#include "e19/harness/trace.h"
#include "e19/harness/workloads.h"

namespace e19 {
namespace {

using eslev::Timestamp;
using eslev::Tuple;
using eslev::Value;

Tuple T(std::vector<Value> values, Timestamp ts) {
  return Tuple(nullptr, std::move(values), ts);
}

// ---- nearest-rank percentiles ------------------------------------------

TEST(NearestRankTest, PicksTheSmallestSampleCoveringThePercentile) {
  std::vector<int64_t> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(NearestRank(&v, 50), 50);
  EXPECT_EQ(NearestRank(&v, 99), 99);
  EXPECT_EQ(NearestRank(&v, 100), 100);
  EXPECT_EQ(NearestRank(&v, 0.5), 1);

  std::vector<int64_t> one = {7};
  EXPECT_EQ(NearestRank(&one, 99), 7);
  std::vector<int64_t> none;
  EXPECT_EQ(NearestRank(&none, 99), 0);

  // 99 % of 1000 is exactly rank 990, not 991 from floating error.
  std::vector<int64_t> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  EXPECT_EQ(NearestRank(&thousand, 99), 990);
}

TEST(NearestRankTest, TenSamplesBeyondP99NeedAThousandSamples) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(SamplesBeyond(100, 99), 1u);
  EXPECT_EQ(SamplesBeyond(0, 99), 0u);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

// ---- self time ----------------------------------------------------------

TEST(SelfTimeTest, NestedChildrenCountOnceAtEachLevel) {
  // a [0,100) > b [10,60) > c [20,30)
  std::vector<Span> spans = {{0, -1, 0, 100}, {1, 0, 10, 60}, {2, 1, 20, 30}};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTimeTest, AdjacentChildrenAreBothSubtracted) {
  // a [0,100) with b [10,40) and c [40,70) touching end to start.
  std::vector<Span> spans = {{0, -1, 0, 100}, {1, 0, 10, 40}, {2, 0, 40, 70}};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 30);
}

TEST(SelfTimeTest, TracerTotalsAgreeWithRecordedSpans) {
  Tracer tracer(1);  // every event sampled
  tracer.set_event(0);
  for (int i = 0; i < 3; ++i) {
    ScopedSpan push(&tracer, Boundary::kServePush);
    {
      ScopedSpan core(&tracer, Boundary::kCorePush);
      ScopedSpan dispatch(&tracer, Boundary::kServeDispatch);
    }
    ScopedSpan consume(&tracer, Boundary::kConsume);
  }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 12u);
  const std::vector<int64_t> self = SelfTimes(spans);
  int64_t top = 0;
  std::vector<int64_t> by_boundary(static_cast<size_t>(Boundary::kCount));
  for (size_t i = 0; i < spans.size(); ++i) {
    by_boundary[static_cast<size_t>(spans[i].boundary)] += self[i];
    if (spans[i].parent < 0) top += spans[i].end_ns - spans[i].start_ns;
    EXPECT_GE(self[i], 0);
  }
  for (Boundary b : {Boundary::kServePush, Boundary::kCorePush,
                     Boundary::kServeDispatch, Boundary::kConsume}) {
    EXPECT_EQ(tracer.totals(b).calls, 3u);
    EXPECT_EQ(tracer.totals(b).self_ns, by_boundary[static_cast<size_t>(b)]);
  }
  EXPECT_EQ(tracer.top_level_ns(), top);
}

TEST(SelfTimeTest, NullTracerRecordsNothing) {
  ScopedSpan span(nullptr, Boundary::kCorePush);  // must not crash
}

// ---- emission -> completing input --------------------------------------

TEST(CompletionTest, ExactTimestamp) {
  CompletionIndex index;
  index.AddInput(100, 3);
  index.AddInput(200, 4);
  EXPECT_EQ(index.ByTimestamp(100), 3u);
  EXPECT_EQ(index.ByTimestamp(200), 4u);
  EXPECT_FALSE(index.ByTimestamp(150).has_value());
}

TEST(CompletionTest, DuplicateCopiesUnderDisorderUseTheLastArrival) {
  // Copies of one read at ts 500 arrive at positions 9 and 5 (out of
  // order); a ghost with the same timestamp is never added.
  CompletionIndex index;
  index.AddInput(500, 9);
  index.AddInput(500, 5);
  EXPECT_EQ(index.ByTimestamp(500), 9u);
}

TEST(CompletionTest, TimeoutFiresAtTheFirstTriggerPastTheDeadline) {
  CompletionIndex index;
  index.AddExpiryTrigger(10, 1);
  index.AddExpiryTrigger(20, 2);
  index.AddExpiryTrigger(20, 3);
  index.AddExpiryTrigger(35, 4);
  EXPECT_EQ(index.FirstAfter(19), 2u);
  EXPECT_EQ(index.FirstAfter(20), 4u);  // strictly later than the deadline
  EXPECT_FALSE(index.FirstAfter(35).has_value());
}

TEST(CompletionTest, ExceptionSeqAlertsSplitIntoTimeoutsAndViolations) {
  CompletionIndex index;
  index.AddInput(8, 2);    // A2 read at 8
  index.AddInput(30, 6);   // an offending A3 read at 30
  index.AddExpiryTrigger(8, 2);
  index.AddExpiryTrigger(12, 4);  // heartbeat at 12, not past 5 + 10
  index.AddExpiryTrigger(16, 5);  // heartbeat at 16, past the deadline
  QuerySpec lab{"t7/lab", true, 10};
  // Timeout of the partial (A1 at 5, A2 at 8): charged from the deadline.
  const Tuple timeout = T({Value::Time(5), Value::Time(8), Value::Null()}, 8);
  EXPECT_EQ(CompletingInput(lab, index, timeout), 5u);
  // Wrong order (A1 then A3): charged from the offender's timestamp.
  const Tuple violation =
      T({Value::Time(25), Value::Null(), Value::Time(30)}, 30);
  EXPECT_EQ(CompletingInput(lab, index, violation), 6u);
  // Other queries always map by timestamp.
  QuerySpec plain{"t0/quality", false, 0};
  EXPECT_EQ(CompletingInput(plain, index, timeout), 2u);
}

// ---- fingerprints -------------------------------------------------------

std::vector<eslev::rfid::TimedReading> SmallTrace() {
  std::vector<eslev::rfid::TimedReading> events;
  events.push_back({"readings", T({Value::String("rd0"), Value::String("tag1"),
                                   Value::Time(1000)},
                                  1000)});
  events.push_back({"readings", T({Value::String("rd1"), Value::String("tag2"),
                                   Value::Time(2000)},
                                  2000)});
  return events;
}

TEST(FingerprintTest, PinnedAndSensitiveToContentAndOrder) {
  const auto events = SmallTrace();
  // Pins the encoding: a change here invalidates every recorded seed.
  EXPECT_EQ(Hex64(FingerprintTrace(events)), "a61e9f741ae20ae5");
  EXPECT_EQ(FingerprintTrace(events), FingerprintTrace(SmallTrace()));

  auto reordered = events;
  std::swap(reordered[0], reordered[1]);
  EXPECT_NE(FingerprintTrace(reordered), FingerprintTrace(events));

  auto changed = events;
  changed[1].tuple = T({Value::String("rd1"), Value::String("tag3"),
                        Value::Time(2000)},
                       2000);
  EXPECT_NE(FingerprintTrace(changed), FingerprintTrace(events));

  auto renamed = events;
  renamed[0].stream = "other";
  EXPECT_NE(FingerprintTrace(renamed), FingerprintTrace(events));
}

TEST(FingerprintTest, GeneratedWorkloadsAreSeedStable) {
  auto a = MakeWorkload("dedup_dense", 7);
  auto b = MakeWorkload("dedup_dense", 7);
  auto c = MakeWorkload("dedup_dense", 8);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->fingerprint, b->fingerprint);
  EXPECT_NE(a->fingerprint, c->fingerprint);
  EXPECT_TRUE(a->reference_problems.empty());
  EXPECT_FALSE(MakeWorkload("no_such_workload", 1).ok());
}

// ---- output check -------------------------------------------------------

Digests DigestOf(const std::vector<Tuple>& tuples) {
  Digests d;
  for (const Tuple& t : tuples) d["q"].Add(t);
  return d;
}

TEST(OutputCheckTest, FlagsMissingExtraAndCorruptedEmissions) {
  const std::vector<Tuple> want = {T({Value::Int(1)}, 10), T({Value::Int(2)}, 20),
                                   T({Value::Int(3)}, 30)};
  const Digests expected = DigestOf(want);

  // Same multiset in another order: clean.
  EXPECT_EQ(CompareDigests(expected, DigestOf({want[2], want[0], want[1]})).failed,
            0u);

  const OutputCheck missing = CompareDigests(expected, DigestOf({want[0], want[1]}));
  EXPECT_EQ(missing.failed, 1u);
  ASSERT_EQ(missing.problems.size(), 1u);
  EXPECT_NE(missing.problems[0].find("missing"), std::string::npos);

  const OutputCheck extra = CompareDigests(
      expected, DigestOf({want[0], want[1], want[2], want[2]}));
  EXPECT_EQ(extra.failed, 1u);
  EXPECT_NE(extra.problems[0].find("extra"), std::string::npos);

  // One value changed, or only the timestamp: same count, wrong hash.
  const OutputCheck corrupted = CompareDigests(
      expected, DigestOf({want[0], want[1], T({Value::Int(4)}, 30)}));
  EXPECT_EQ(corrupted.failed, 1u);
  EXPECT_NE(corrupted.problems[0].find("corrupted"), std::string::npos);
  EXPECT_EQ(CompareDigests(expected,
                           DigestOf({want[0], want[1], T({Value::Int(3)}, 31)}))
                .failed,
            1u);

  // A query that never emitted loses all of its emissions.
  EXPECT_EQ(CompareDigests(expected, Digests{}).failed, 3u);
}

}  // namespace
}  // namespace e19
