// E13 — sharded parallel engine scaling (DESIGN.md §8).
//
// Measures end-to-end tuples/second of the Example-1 dedup pipeline on a
// window-dense workload under (a) one Engine on the producer's thread
// and (b) ShardedEngine at 1/2/4/8 shards. Both are fed the identical
// timestamp-ordered trace from one producer: with racing producers the
// shards' forward-clamping rewrites timestamps in scheduler-dependent
// ways, so the configurations would process different effective
// histories and the comparison would be meaningless.
// The NOT EXISTS probe walks one key bucket whatever the window holds
// (DESIGN.md §5), so the speedup comes from shards running in parallel.
//
// A separate equivalence "benchmark" verifies — outside of timing — that
// the sharded match set is byte-identical to a single Engine's output on
// the same trace.

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/sharded_engine.h"

namespace eslev {
namespace {

constexpr const char* kSetup = R"sql(
  CREATE STREAM readings(reader_id, tag_id, read_time);
  CREATE STREAM cleaned_readings(reader_id, tag_id, read_time);
  INSERT INTO cleaned_readings
  SELECT * FROM readings AS r1
  WHERE NOT EXISTS
    (SELECT * FROM TABLE( readings OVER
        (RANGE 1 seconds PRECEDING CURRENT)) AS r2
     WHERE r2.reader_id = r1.reader_id
       AND r2.tag_id = r1.tag_id);
)sql";

// Dense arrivals: ~400 tuples fall inside the 1-second dedup window, so
// the per-tuple anti-join scan dominates and partitioning pays off.
rfid::Workload DenseDedupWorkload() {
  rfid::DuplicateWorkloadOptions options;
  options.num_distinct = 1500;
  options.duplicates_per_read = 5;
  options.inter_arrival = Milliseconds(15);
  options.duplicate_spread = Milliseconds(800);
  options.num_readers = 4;
  options.num_tags = 600;
  return rfid::MakeDuplicateWorkload(options);
}

// One producer, timestamp order: every configuration sees the same
// effective history (no forward-clamping kicks in), so throughput
// differences are scan + scheduling cost, not workload drift.
template <typename EngineT>
void FeedTrace(EngineT* engine, const rfid::Workload& workload) {
  for (const auto& e : workload.events) {
    bench::CheckOk(engine->PushTuple(e.stream, e.tuple), "push");
  }
}

void BM_E1DedupSingleEngineBaseline(benchmark::State& state) {
  auto workload = DenseDedupWorkload();
  size_t cleaned = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    bench::CheckOk(engine.ExecuteScript(kSetup), "setup");
    cleaned = 0;
    bench::CheckOk(
        engine.Subscribe("cleaned_readings", [&](const Tuple&) { ++cleaned; }),
        "subscribe");
    state.ResumeTiming();
    FeedTrace(&engine, workload);
  }
  if (cleaned == 0 || cleaned > workload.events.size()) {
    state.SkipWithError("implausible dedup output");
    return;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          workload.events.size());
  state.counters["cleaned"] = static_cast<double>(cleaned);
}
BENCHMARK(BM_E1DedupSingleEngineBaseline)->UseRealTime();

void BM_E1DedupSharded(benchmark::State& state) {
  auto workload = DenseDedupWorkload();
  const size_t num_shards = static_cast<size_t>(state.range(0));
  size_t cleaned = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ShardedEngineOptions options;
    options.num_shards = num_shards;
    ShardedEngine engine(options);
    bench::CheckOk(engine.ExecuteScript(kSetup), "setup");
    cleaned = 0;
    bench::CheckOk(
        engine.Subscribe("cleaned_readings", [&](const Tuple&) { ++cleaned; }),
        "subscribe");
    state.ResumeTiming();
    FeedTrace(&engine, workload);
    bench::CheckOk(engine.Flush(), "flush");
    engine.DrainOutputs();
  }
  if (cleaned == 0 || cleaned > workload.events.size()) {
    state.SkipWithError("implausible dedup output");
    return;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          workload.events.size());
  state.counters["shards"] = static_cast<double>(num_shards);
  state.counters["cleaned"] = static_cast<double>(cleaned);
}
BENCHMARK(BM_E1DedupSharded)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Correctness gate, not a timing: single-threaded, timestamp-ordered
// feeding must give a match set byte-identical to one Engine's.
void BM_E1ShardedEquivalenceCheck(benchmark::State& state) {
  auto workload = DenseDedupWorkload();

  std::vector<std::string> reference;
  {
    Engine engine;
    bench::CheckOk(engine.ExecuteScript(kSetup), "setup");
    bench::CheckOk(engine.Subscribe("cleaned_readings",
                                    [&](const Tuple& t) {
                                      reference.push_back(t.ToString());
                                    }),
                   "subscribe");
    bench::Feed(&engine, workload);
  }
  std::sort(reference.begin(), reference.end());

  bool identical = true;
  for (auto _ : state) {
    std::vector<std::string> sharded;
    ShardedEngineOptions options;
    options.num_shards = 4;
    ShardedEngine engine(options);
    bench::CheckOk(engine.ExecuteScript(kSetup), "setup");
    bench::CheckOk(engine.Subscribe("cleaned_readings",
                                    [&](const Tuple& t) {
                                      sharded.push_back(t.ToString());
                                    }),
                   "subscribe");
    for (const auto& e : workload.events) {
      bench::CheckOk(engine.PushTuple(e.stream, e.tuple), "push");
    }
    bench::CheckOk(engine.Flush(), "flush");
    engine.DrainOutputs();
    std::sort(sharded.begin(), sharded.end());
    identical = identical && (sharded == reference);
  }
  if (!identical) {
    state.SkipWithError("sharded match set differs from single-engine output");
    return;
  }
  state.counters["matches"] = static_cast<double>(reference.size());
  state.counters["identical"] = 1;
}
BENCHMARK(BM_E1ShardedEquivalenceCheck)->Iterations(1);

// Watermark fan-out cost: the E5 EXCEPTION_SEQ workflow pinned to one
// shard, heartbeats broadcast to all shards (most of them idle) — the
// overhead of keeping active expiration correct across the fleet.
void BM_WatermarkHeartbeatFanout(benchmark::State& state) {
  rfid::LabWorkflowWorkloadOptions options;
  options.num_rounds = 300;
  options.timeout_rate = 0.2;
  options.wrong_order_rate = 0;
  options.wrong_start_rate = 0;
  auto workload = rfid::MakeLabWorkflowWorkload(options);
  const size_t num_shards = static_cast<size_t>(state.range(0));

  size_t alerts = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ShardedEngineOptions opts;
    opts.num_shards = num_shards;
    ShardedEngine engine(opts);
    bench::CheckOk(engine.ExecuteScript(R"sql(
      CREATE STREAM A1(staffid, tagid, tagtime);
      CREATE STREAM A2(staffid, tagid, tagtime);
      CREATE STREAM A3(staffid, tagid, tagtime);
    )sql"),
                   "ddl");
    auto q = engine.RegisterQuery(R"sql(
      SELECT A1.tagid, A2.tagid, A3.tagid
      FROM A1, A2, A3
      WHERE EXCEPTION_SEQ(A1, A2, A3)
      OVER [1 HOURS FOLLOWING A1]
    )sql");
    bench::CheckOk(q.status(), "query");
    // The workflow is one global sequence — cross-partition, so it
    // falls back to a single shard; heartbeats still fan everywhere.
    for (const char* s : {"A1", "A2", "A3"}) {
      bench::CheckOk(engine.SetSingleShard(s), "route");
    }
    alerts = 0;
    bench::CheckOk(
        engine.Subscribe(q->output_stream, [&](const Tuple&) { ++alerts; }),
        "subscribe");
    state.ResumeTiming();
    Timestamp last = 0;
    for (const auto& e : workload.events) {
      // One periodic clock tick between arrivals, fanned to all shards.
      bench::CheckOk(engine.AdvanceTime(last + (e.tuple.ts() - last) / 2),
                     "heartbeat");
      bench::CheckOk(engine.PushTuple(e.stream, e.tuple), "push");
      last = e.tuple.ts();
    }
    bench::CheckOk(engine.AdvanceTime(last + Hours(2)), "final");
    bench::CheckOk(engine.Flush(), "flush");
    engine.DrainOutputs();
  }
  if (alerts != workload.expected_exceptions) {
    state.SkipWithError("timeout alerts do not match ground truth");
    return;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          workload.events.size() * 2);
  state.counters["shards"] = static_cast<double>(num_shards);
  state.counters["alerts"] = static_cast<double>(alerts);
}
BENCHMARK(BM_WatermarkHeartbeatFanout)->Arg(1)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace eslev

ESLEV_BENCH_MAIN()
