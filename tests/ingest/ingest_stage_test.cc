// Unit tests for the ingest subsystem (DESIGN.md §15): reorder-stage
// boundary behaviour (an event displaced by exactly the lateness bound
// is accepted, one microsecond more is late), cleaning-stage smoothing
// (window of 1, all-duplicate bursts, spurious filtering,
// interpolation provenance), option validation, and stage state
// save/restore.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "ingest/cleaning_stage.h"
#include "ingest/ingest_options.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/reorder_stage.h"
#include "rfid/workloads.h"

namespace eslev {
namespace {

Tuple Read(const std::string& reader, const std::string& tag, Timestamp ts) {
  auto t = MakeTuple(
      rfid::ReaderSchema(),
      {Value::String(reader), Value::String(tag), Value::Time(ts)}, ts);
  EXPECT_TRUE(t.ok());
  return std::move(t).ValueUnsafe();
}

/// Collector bound to the tail of a stage chain.
struct Collected {
  std::vector<std::pair<size_t, Tuple>> tuples;
  std::vector<Timestamp> heartbeats;
  std::vector<std::string> Rows() const {
    std::vector<std::string> rows;
    for (const auto& [port, t] : tuples) {
      rows.push_back(std::to_string(port) + ":" + t.ToString());
    }
    return rows;
  }
};

void BindSink(IngestDelivery* sink, Collected* out) {
  sink->Bind(
      [out](size_t port, const Tuple& t) {
        out->tuples.emplace_back(port, t);
        return Status::OK();
      },
      [out](Timestamp now) {
        out->heartbeats.push_back(now);
        return Status::OK();
      });
}

// ---------------------------------------------------------------------------
// ReorderStage
// ---------------------------------------------------------------------------

TEST(ReorderStageTest, ReordersWithinBound) {
  Collected out;
  IngestDelivery sink;
  BindSink(&sink, &out);
  ReorderStage stage(100);
  stage.set_next(&sink);

  ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", 1000)).ok());
  ASSERT_TRUE(stage.OnTuple(0, Read("r", "c", 1300)).ok());
  ASSERT_TRUE(stage.OnTuple(0, Read("r", "b", 1250)).ok());  // within bound
  ASSERT_TRUE(stage.OnHeartbeat(2000).ok());

  ASSERT_EQ(out.tuples.size(), 3u);
  EXPECT_EQ(out.tuples[0].second.ts(), 1000);
  EXPECT_EQ(out.tuples[1].second.ts(), 1250);
  EXPECT_EQ(out.tuples[2].second.ts(), 1300);
  EXPECT_EQ(stage.late_dropped(), 0u);
  EXPECT_EQ(stage.released(), 3u);
  EXPECT_EQ(stage.max_disorder_us(), 50);
}

TEST(ReorderStageTest, EventExactlyAtBoundIsAccepted) {
  Collected out;
  IngestDelivery sink;
  BindSink(&sink, &out);
  ReorderStage stage(100);
  stage.set_next(&sink);

  ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", 1000)).ok());
  // Displaced by exactly the bound: 1000 - 100 = 900 == effective
  // frontier, still accepted.
  ASSERT_TRUE(stage.OnTuple(0, Read("r", "b", 900)).ok());
  // One microsecond later: dropped.
  ASSERT_TRUE(stage.OnTuple(0, Read("r", "c", 899)).ok());
  ASSERT_TRUE(stage.OnHeartbeat(2000).ok());

  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(out.tuples[0].second.ts(), 900);
  EXPECT_EQ(out.tuples[1].second.ts(), 1000);
  EXPECT_EQ(stage.late_dropped(), 1u);
  EXPECT_EQ(stage.max_disorder_us(), 101);
}

TEST(ReorderStageTest, HeartbeatForwardsHeldBackFrontier) {
  Collected out;
  IngestDelivery sink;
  BindSink(&sink, &out);
  ReorderStage stage(100);
  stage.set_next(&sink);

  ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", 1000)).ok());
  ASSERT_TRUE(stage.OnHeartbeat(1500).ok());
  // Downstream hears 1500 - 100: an arrival at 1400 is still possible.
  ASSERT_EQ(out.heartbeats.size(), 1u);
  EXPECT_EQ(out.heartbeats[0], 1400);
  // Stale tick does not move the output heartbeat backwards.
  ASSERT_TRUE(stage.OnHeartbeat(1400).ok());
  EXPECT_EQ(out.heartbeats.size(), 1u);
}

TEST(ReorderStageTest, StateRoundTripsMidBuffer) {
  Collected out_a;
  IngestDelivery sink_a;
  BindSink(&sink_a, &out_a);
  ReorderStage a(100);
  a.set_next(&sink_a);
  ASSERT_TRUE(a.OnTuple(0, Read("r", "x", 1000)).ok());
  ASSERT_TRUE(a.OnTuple(1, Read("r", "y", 950)).ok());
  ASSERT_EQ(a.depth(), 2u);

  BinaryEncoder enc;
  ASSERT_TRUE(a.SaveState(&enc).ok());

  Collected out_b;
  IngestDelivery sink_b;
  BindSink(&sink_b, &out_b);
  ReorderStage b(100);
  b.set_next(&sink_b);
  BinaryDecoder dec(enc.buffer());
  ASSERT_TRUE(b.RestoreState(&dec).ok());
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_EQ(b.depth(), 2u);
  EXPECT_EQ(b.max_seen(), 1000);

  // Both instances release the identical sequence from here on.
  ASSERT_TRUE(a.OnHeartbeat(5000).ok());
  ASSERT_TRUE(b.OnHeartbeat(5000).ok());
  EXPECT_EQ(out_a.Rows(), out_b.Rows());
  ASSERT_EQ(out_b.tuples.size(), 2u);
  EXPECT_EQ(out_b.tuples[0].first, 1u);  // port survives the round trip
}

// ---------------------------------------------------------------------------
// CleaningStage
// ---------------------------------------------------------------------------

IngestOptions CleanOptions(Duration window, int64_t min_count,
                           Duration horizon = 0, Duration period = 0) {
  IngestOptions o;
  o.smoothing_window = window;
  o.min_read_count = min_count;
  o.interpolation_horizon = horizon;
  o.interpolation_period = period;
  return o;
}

TEST(CleaningStageTest, AllDuplicateBurstCollapsesToAnchor) {
  Collected out;
  IngestDelivery sink;
  BindSink(&sink, &out);
  CleaningStage stage(CleanOptions(1000, 1));
  stage.set_next(&sink);

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", 1000 + i * 10)).ok());
  }
  ASSERT_TRUE(stage.OnHeartbeat(10000).ok());
  ASSERT_EQ(out.tuples.size(), 1u);
  EXPECT_EQ(out.tuples[0].second.ts(), 1000);  // anchor read
  EXPECT_EQ(stage.dups_suppressed(), 49u);
  EXPECT_EQ(stage.emitted(), 1u);
}

TEST(CleaningStageTest, SpuriousFilteredByMinCount) {
  Collected out;
  IngestDelivery sink;
  BindSink(&sink, &out);
  CleaningStage stage(CleanOptions(1000, 2));
  stage.set_next(&sink);

  // "a" is read twice (believed), "ghost" once (filtered).
  ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", 1000)).ok());
  ASSERT_TRUE(stage.OnTuple(0, Read("r", "ghost", 1100)).ok());
  ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", 1200)).ok());
  ASSERT_TRUE(stage.OnHeartbeat(10000).ok());

  ASSERT_EQ(out.tuples.size(), 1u);
  EXPECT_EQ(out.tuples[0].second.value(1).ToString(), "a");
  EXPECT_EQ(stage.spurious_filtered(), 1u);
  EXPECT_EQ(stage.dups_suppressed(), 1u);
}

TEST(CleaningStageTest, SmoothingWindowOfOne) {
  Collected out;
  IngestDelivery sink;
  BindSink(&sink, &out);
  CleaningStage stage(CleanOptions(1, 1));
  stage.set_next(&sink);

  // Window [anchor, anchor+1]: 1000 and 1001 group, 1002 starts fresh.
  ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", 1000)).ok());
  ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", 1001)).ok());
  ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", 1002)).ok());
  ASSERT_TRUE(stage.OnHeartbeat(10000).ok());

  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(out.tuples[0].second.ts(), 1000);
  EXPECT_EQ(out.tuples[1].second.ts(), 1002);
  EXPECT_EQ(stage.dups_suppressed(), 1u);
}

TEST(CleaningStageTest, InterpolatesMissedReadsWithProvenance) {
  Collected out;
  IngestDelivery sink;
  BindSink(&sink, &out);
  // Fixed 100 us period, horizon 1 ms: a 300 us gap gains two fills.
  CleaningStage stage(CleanOptions(10, 1, 1000, 100));
  stage.set_next(&sink);

  ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", 1000)).ok());
  ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", 1300)).ok());
  ASSERT_TRUE(stage.OnHeartbeat(100000).ok());

  ASSERT_EQ(out.tuples.size(), 4u);
  EXPECT_EQ(out.tuples[0].second.ts(), 1000);
  EXPECT_FALSE(out.tuples[0].second.synthesized());
  EXPECT_EQ(out.tuples[1].second.ts(), 1100);
  EXPECT_TRUE(out.tuples[1].second.synthesized());
  EXPECT_EQ(out.tuples[2].second.ts(), 1200);
  EXPECT_TRUE(out.tuples[2].second.synthesized());
  // The mirrored event-time column shifts with the tuple timestamp.
  EXPECT_EQ(out.tuples[1].second.value(2).time_value(), 1100);
  EXPECT_EQ(out.tuples[3].second.ts(), 1300);
  EXPECT_FALSE(out.tuples[3].second.synthesized());
  EXPECT_EQ(stage.interpolated(), 2u);
}

TEST(CleaningStageTest, NoInterpolationBeyondHorizon) {
  Collected out;
  IngestDelivery sink;
  BindSink(&sink, &out);
  CleaningStage stage(CleanOptions(10, 1, 1000, 100));
  stage.set_next(&sink);

  ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", 1000)).ok());
  ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", 5000)).ok());  // gap > horizon
  ASSERT_TRUE(stage.OnHeartbeat(100000).ok());
  EXPECT_EQ(stage.interpolated(), 0u);
  EXPECT_EQ(out.tuples.size(), 2u);
}

TEST(CleaningStageTest, OutputStaysSortedAcrossKeys) {
  Collected out;
  IngestDelivery sink;
  BindSink(&sink, &out);
  CleaningStage stage(CleanOptions(100, 1, 500, 50));
  stage.set_next(&sink);

  // Interleaved keys with interpolation: emissions must still come out
  // in timestamp order (the hold-back buffer's whole purpose).
  for (Timestamp ts = 1000; ts < 3000; ts += 130) {
    ASSERT_TRUE(stage.OnTuple(0, Read("r", "a", ts)).ok());
    ASSERT_TRUE(stage.OnTuple(0, Read("r", "b", ts + 7)).ok());
  }
  ASSERT_TRUE(stage.OnHeartbeat(100000).ok());
  ASSERT_GT(out.tuples.size(), 0u);
  for (size_t i = 1; i < out.tuples.size(); ++i) {
    EXPECT_LE(out.tuples[i - 1].second.ts(), out.tuples[i].second.ts());
  }
  EXPECT_GT(stage.interpolated(), 0u);  // 130 us gaps, 50 us period
}

// Two distinct reads of a (reader, tag, value) schema, 100 us apart,
// offered to a min_read_count 2 stage: each is a group of one, so both
// are filtered as spurious and nothing is emitted.
void ExpectDistinctReadsStaySeparate(const std::vector<Value>& first,
                                     const std::vector<Value>& second) {
  SchemaPtr schema = Schema::Make({{"reader_id", TypeId::kString},
                                   {"tag_id", TypeId::kString},
                                   {"value", TypeId::kDouble},
                                   {"read_time", TypeId::kTimestamp}});
  const auto read = [&](std::vector<Value> values, Timestamp ts) {
    values.push_back(Value::Time(ts));
    return Tuple(schema, std::move(values), ts);
  };
  Collected out;
  IngestDelivery sink;
  BindSink(&sink, &out);
  CleaningStage stage(CleanOptions(1000, 2));
  stage.set_next(&sink);
  ASSERT_TRUE(stage.OnTuple(0, read(first, 1000)).ok());
  ASSERT_TRUE(stage.OnTuple(0, read(second, 1100)).ok());
  ASSERT_TRUE(stage.OnHeartbeat(100000).ok());
  EXPECT_EQ(out.Rows(), std::vector<std::string>{});
  EXPECT_EQ(stage.spurious_filtered(), 2u);
  EXPECT_EQ(stage.dups_suppressed(), 0u);
}

TEST(CleaningStageTest, DoublesDifferingPastSixDecimalsDoNotGroup) {
  ExpectDistinctReadsStaySeparate(
      {Value::String("r"), Value::String("a"), Value::Double(1.0000001)},
      {Value::String("r"), Value::String("a"), Value::Double(1.0000002)});
}

TEST(CleaningStageTest, NullDoesNotGroupWithTheStringNull) {
  ExpectDistinctReadsStaySeparate(
      {Value::String("r"), Value::Null(), Value::Double(1)},
      {Value::String("r"), Value::String("NULL"), Value::Double(1)});
}

TEST(CleaningStageTest, SeparatorBytesInStringsDoNotShiftColumns) {
  ExpectDistinctReadsStaySeparate(
      {Value::String("a\x1f" "b"), Value::String("c"), Value::Double(1)},
      {Value::String("a"), Value::String("b\x1f" "c"), Value::Double(1)});
}

TEST(CleaningStageTest, NullsAndNansGroupWithTheirOwnKind) {
  // The grouping equality (DESIGN.md §15): NULL groups with NULL, any
  // NaN with any NaN, and -0.0 with 0.0, so each pair below is one read
  // and its duplicate.
  SchemaPtr schema = Schema::Make({{"reader_id", TypeId::kString},
                                   {"value", TypeId::kDouble},
                                   {"read_time", TypeId::kTimestamp}});
  const auto read = [&](Value reader, Value value, Timestamp ts) {
    return Tuple(schema, {std::move(reader), std::move(value), Value::Time(ts)},
                 ts);
  };
  Collected out;
  IngestDelivery sink;
  BindSink(&sink, &out);
  CleaningStage stage(CleanOptions(1000, 2));
  stage.set_next(&sink);
  const double nan = std::nan("");
  ASSERT_TRUE(stage.OnTuple(0, read(Value::Null(), Value::Double(1), 1000)).ok());
  ASSERT_TRUE(stage.OnTuple(0, read(Value::Null(), Value::Double(1), 1100)).ok());
  ASSERT_TRUE(stage.OnTuple(0, read(Value::String("r"), Value::Double(nan), 1200)).ok());
  ASSERT_TRUE(stage.OnTuple(0, read(Value::String("r"), Value::Double(-nan), 1300)).ok());
  ASSERT_TRUE(stage.OnTuple(0, read(Value::String("z"), Value::Double(-0.0), 1400)).ok());
  ASSERT_TRUE(stage.OnTuple(0, read(Value::String("z"), Value::Double(0.0), 1500)).ok());
  ASSERT_TRUE(stage.OnHeartbeat(100000).ok());
  ASSERT_EQ(out.tuples.size(), 3u);
  EXPECT_EQ(out.tuples[0].second.ts(), 1000);
  EXPECT_EQ(out.tuples[1].second.ts(), 1200);
  EXPECT_EQ(out.tuples[2].second.ts(), 1400);
  EXPECT_EQ(stage.dups_suppressed(), 3u);
  EXPECT_EQ(stage.spurious_filtered(), 0u);
}

TEST(CleaningStageTest, KeepsNoKeyStateWithoutInterpolation) {
  Collected out;
  IngestDelivery sink;
  BindSink(&sink, &out);
  CleaningStage stage(CleanOptions(10, 1));
  stage.set_next(&sink);
  for (Timestamp ts = 1000; ts < 2000; ts += 100) {
    ASSERT_TRUE(stage.OnTuple(0, Read("r", "t" + std::to_string(ts), ts)).ok());
  }
  ASSERT_TRUE(stage.OnHeartbeat(100000).ok());
  EXPECT_EQ(out.tuples.size(), 10u);
  EXPECT_EQ(stage.key_states(), 0u);

  // With interpolation on, every emitting key keeps its state.
  CleaningStage interpolating(CleanOptions(10, 1, 1000, 100));
  interpolating.set_next(&sink);
  for (Timestamp ts = 1000; ts < 2000; ts += 100) {
    ASSERT_TRUE(
        interpolating.OnTuple(0, Read("r", "t" + std::to_string(ts), ts)).ok());
  }
  ASSERT_TRUE(interpolating.OnHeartbeat(100000).ok());
  EXPECT_EQ(interpolating.key_states(), 10u);
}

TEST(CleaningStageTest, RestoresCheckpointCarryingKeyStates) {
  // Checkpoints written before the per-key state became interpolation
  // only carry one entry per emitted key even without interpolation.
  // This blob has that layout: counters, one open group, one key state,
  // one held-back emission.
  BinaryEncoder enc;
  enc.PutU64(5);      // open_seq
  enc.PutU64(3);      // pending_seq
  enc.PutI64(2000);   // frontier
  enc.PutI64(900);    // heartbeat out
  enc.PutU64(1);      // dups suppressed
  enc.PutU64(0);      // spurious filtered
  enc.PutU64(0);      // interpolated
  enc.PutU64(2);      // emitted
  enc.PutU32(1);      // open groups
  enc.PutU64(4);
  enc.PutU32(0);
  enc.PutU64(2);
  enc.PutTuple(Read("r", "x", 1995));
  enc.PutBool(false);
  enc.PutU32(1);      // key states
  enc.PutU32(0);
  enc.PutTuple(Read("r", "y", 1500));
  enc.PutI64(0);
  enc.PutU32(1);      // held-back emissions
  enc.PutU64(2);
  enc.PutU32(0);
  enc.PutTuple(Read("r", "y", 1500));
  enc.PutBool(false);

  Collected out;
  IngestDelivery sink;
  BindSink(&sink, &out);
  CleaningStage stage(CleanOptions(1000, 2));
  stage.set_next(&sink);
  BinaryDecoder dec(enc.buffer());
  ASSERT_TRUE(stage.RestoreState(&dec).ok());
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_EQ(stage.open_groups(), 1u);
  EXPECT_EQ(stage.pending(), 1u);
  EXPECT_EQ(stage.key_states(), 0u);

  ASSERT_TRUE(stage.OnHeartbeat(100000).ok());
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(out.tuples[0].second.ts(), 1500);
  EXPECT_EQ(out.tuples[1].second.ts(), 1995);

  // Saved again, the state carries no key-state entries, while an
  // interpolating stage keeps the old blob's entry.
  BinaryEncoder again;
  ASSERT_TRUE(stage.SaveState(&again).ok());
  CleaningStage interpolating(CleanOptions(1000, 2, 5000, 100));
  BinaryDecoder resaved(again.buffer());
  ASSERT_TRUE(interpolating.RestoreState(&resaved).ok());
  EXPECT_TRUE(resaved.AtEnd());
  EXPECT_EQ(interpolating.key_states(), 0u);
  BinaryDecoder old_blob(enc.buffer());
  ASSERT_TRUE(interpolating.RestoreState(&old_blob).ok());
  EXPECT_EQ(interpolating.key_states(), 1u);
}

TEST(CleaningStageTest, StateRoundTripsMidGroups) {
  const IngestOptions options = CleanOptions(1000, 2, 5000, 100);
  Collected out_a;
  IngestDelivery sink_a;
  BindSink(&sink_a, &out_a);
  CleaningStage a(options);
  a.set_next(&sink_a);
  ASSERT_TRUE(a.OnTuple(0, Read("r", "x", 1000)).ok());
  ASSERT_TRUE(a.OnTuple(0, Read("r", "x", 1100)).ok());
  ASSERT_TRUE(a.OnTuple(1, Read("r", "y", 1500)).ok());
  ASSERT_GT(a.open_groups(), 0u);

  BinaryEncoder enc;
  ASSERT_TRUE(a.SaveState(&enc).ok());
  Collected out_b;
  IngestDelivery sink_b;
  BindSink(&sink_b, &out_b);
  CleaningStage b(options);
  b.set_next(&sink_b);
  BinaryDecoder dec(enc.buffer());
  ASSERT_TRUE(b.RestoreState(&dec).ok());
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_EQ(b.open_groups(), a.open_groups());

  ASSERT_TRUE(a.OnHeartbeat(100000).ok());
  ASSERT_TRUE(b.OnHeartbeat(100000).ok());
  EXPECT_EQ(out_a.Rows(), out_b.Rows());
}

// ---------------------------------------------------------------------------
// Options validation
// ---------------------------------------------------------------------------

TEST(IngestEnvTest, ValidateRejectsBadCombinations) {
  IngestOptions o;
  o.min_read_count = 0;
  EXPECT_FALSE(ValidateIngestOptions(o).ok());
  o = IngestOptions{};
  o.interpolation_horizon = 100;  // interpolation without smoothing
  EXPECT_FALSE(ValidateIngestOptions(o).ok());
  o = IngestOptions{};
  o.smoothing_window = kMaxIngestDurationUs + 1;
  EXPECT_FALSE(ValidateIngestOptions(o).ok());
  o = IngestOptions{};
  o.lateness_bound = 1000;
  o.smoothing_window = 500;
  o.min_read_count = 2;
  EXPECT_TRUE(ValidateIngestOptions(o).ok());
}

// ---------------------------------------------------------------------------
// Pipeline composition
// ---------------------------------------------------------------------------

TEST(IngestPipelineTest, PortsAssignedInFirstOfferOrder) {
  IngestOptions options;
  options.lateness_bound = 100;
  IngestPipeline pipeline(options);
  EXPECT_EQ(pipeline.PortFor("readings"), 0u);
  EXPECT_EQ(pipeline.PortFor("c1"), 1u);
  EXPECT_EQ(pipeline.PortFor("readings"), 0u);
  EXPECT_EQ(pipeline.port_name(1), "c1");
  EXPECT_EQ(pipeline.num_ports(), 2u);
}

TEST(IngestPipelineTest, ReorderFeedsCleaningFeedsDelivery) {
  IngestOptions options;
  options.lateness_bound = 100;
  options.smoothing_window = 1000;
  options.min_read_count = 2;
  IngestPipeline pipeline(options);
  Collected out;
  pipeline.BindDelivery(
      [&](size_t port, const Tuple& t) {
        out.tuples.emplace_back(port, t);
        return Status::OK();
      },
      [&](Timestamp now) {
        out.heartbeats.push_back(now);
        return Status::OK();
      });

  const size_t port = pipeline.PortFor("readings");
  // Disordered duplicates of "a" plus a single "ghost".
  ASSERT_TRUE(pipeline.Offer(port, Read("r", "a", 1050)).ok());
  ASSERT_TRUE(pipeline.Offer(port, Read("r", "a", 1000)).ok());
  ASSERT_TRUE(pipeline.Offer(port, Read("r", "ghost", 1100)).ok());
  EXPECT_GT(pipeline.buffered(), 0u);
  ASSERT_TRUE(pipeline.Heartbeat(100000).ok());

  ASSERT_EQ(out.tuples.size(), 1u);
  EXPECT_EQ(out.tuples[0].second.ts(), 1000);  // reordered anchor
  ASSERT_EQ(pipeline.cleaning()->spurious_filtered(), 1u);
  EXPECT_FALSE(out.heartbeats.empty());
  EXPECT_EQ(pipeline.buffered(), 0u);

  MetricsSnapshot snap;
  pipeline.AppendMetrics(&snap);
  EXPECT_EQ(snap.gauges.at("ingest.enabled"), 1);
  EXPECT_EQ(snap.counters.at("ingest.clean.spurious_filtered"), 1u);
  EXPECT_NE(pipeline.ExplainLine().find("reorder[lateness_us=100"),
            std::string::npos);
}

}  // namespace
}  // namespace eslev
