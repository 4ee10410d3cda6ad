// E16 — route batching: sharded Example 1 dedup throughput as a function
// of ShardedEngineOptions::route_batch_size. Size 1 enqueues every tuple
// on its own; larger sizes carry a run of same-stream tuples bound for
// one shard in a single MPSC queue item, without changing output bytes.
// Shard engines always process tuple-at-a-time. The CI bench gate
// (tools/bench_gate.py) tracks these series against bench/baseline.json.

#include "bench/bench_util.h"
#include "core/sharded_engine.h"

namespace eslev {
namespace {

// Sharded Example 1 — the front end buffers per-shard runs so each MPSC
// enqueue carries route_batch_size tuples instead of one. Fixed 4
// shards, sweeping the route batch size.
void BM_ShardedDedupBatchSize(benchmark::State& state) {
  rfid::DuplicateWorkloadOptions options;
  options.num_distinct = 5000;
  options.duplicates_per_read = 3;
  auto workload = rfid::MakeDuplicateWorkload(options);
  for (auto _ : state) {
    state.PauseTiming();
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = 4;
    sharded_options.route_batch_size = static_cast<size_t>(state.range(0));
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
BENCHMARK(BM_ShardedDedupBatchSize)->Arg(1)->Arg(64)->Arg(1024)
    ->MeasureProcessCPUTime()->UseRealTime();

}  // namespace
}  // namespace eslev

ESLEV_BENCH_MAIN()
