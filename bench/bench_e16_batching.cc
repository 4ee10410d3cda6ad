// E16 — the shard mailbox's batching: sharded Example 1 dedup
// throughput at 4 shards. Routed tuples queue without waking their
// worker, which drains its whole backlog at the next heartbeat, command,
// Flush or DrainOutputs, or at 64 queued items (DESIGN.md §8), so one
// wake-up carries many tuples; the trace here has no heartbeats, so the
// 64-item rule and the closing Flush do all the waking. Shard engines
// process tuple-at-a-time. The series is named by its former route
// batch size argument, 1, so the CI bench gate (tools/bench_gate.py)
// keeps tracking it against bench/baseline.json.

#include "bench/bench_util.h"
#include "core/sharded_engine.h"

namespace eslev {
namespace {

// Sharded Example 1 on 4 shards.
void BM_ShardedDedupBatchSize(benchmark::State& state) {
  rfid::DuplicateWorkloadOptions options;
  options.num_distinct = 5000;
  options.duplicates_per_read = 3;
  auto workload = rfid::MakeDuplicateWorkload(options);
  for (auto _ : state) {
    state.PauseTiming();
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = 4;
    ShardedEngine engine(sharded_options);
    bench::CheckOk(engine.ExecuteScript(R"sql(
      CREATE STREAM readings(reader_id, tag_id, read_time);
      CREATE STREAM cleaned_readings(reader_id, tag_id, read_time);
      INSERT INTO cleaned_readings
      SELECT * FROM readings AS r1
      WHERE NOT EXISTS
        (SELECT * FROM TABLE( readings OVER
            (RANGE 1 seconds PRECEDING CURRENT)) AS r2
         WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);
    )sql"),
                   "setup");
    state.ResumeTiming();
    for (const auto& e : workload.events) {
      bench::CheckOk(engine.PushTuple(e.stream, e.tuple), "push");
    }
    bench::CheckOk(engine.Flush(), "flush");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          workload.events.size());
}
BENCHMARK(BM_ShardedDedupBatchSize)->Arg(1)->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace eslev

ESLEV_BENCH_MAIN()
