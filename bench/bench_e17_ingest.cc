// E17 — ingest subsystem cost (DESIGN.md §15): the reorder + cleaning
// stages ahead of the CEP core. Three series over the E1 dedup
// pipeline: the no-ingest baseline, ingest enabled on a perfectly clean
// trace (pure stage overhead), and ingest under bounded disorder with
// duplicates and ghost reads — the workload the subsystem exists for,
// swept by disorder magnitude and by ghost rate. Throughput counts
// ARRIVED events, noise included, so the noisy series pays for the
// extra tuples it absorbs. The CI bench gate (tools/bench_gate.py)
// tracks the overhead and worst-disorder series in bench/baseline.json.

#include "bench/bench_util.h"
#include "rfid/workloads.h"

namespace eslev {
namespace {

constexpr char kDedupScript[] = R"sql(
  CREATE STREAM readings(reader_id, tag_id, read_time);
  CREATE STREAM cleaned_readings(reader_id, tag_id, read_time);
  INSERT INTO cleaned_readings
  SELECT * FROM readings AS r1
  WHERE NOT EXISTS
    (SELECT * FROM TABLE( readings OVER
        (RANGE 1 seconds PRECEDING CURRENT)) AS r2
     WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);
)sql";

// Inter-arrival (100 ms) sits well under the worst max_shift (400 ms),
// so disorder genuinely permutes neighbours instead of being absorbed
// by the gaps.
rfid::Workload CleanTrace() {
  rfid::DuplicateWorkloadOptions options;
  options.num_distinct = 5000;
  options.duplicates_per_read = 0;  // noise injection owns duplication
  options.inter_arrival = Milliseconds(100);
  auto w = rfid::MakeDuplicateWorkload(options);
  rfid::NormalizeUniqueTimestamps(&w);
  return w;
}

rfid::Workload NoisyTrace(Duration max_shift, double spurious_rate) {
  rfid::Workload w = CleanTrace();
  rfid::NoiseOptions noise;
  noise.max_shift = max_shift;
  noise.duplicate_rate = 1.0;  // every real read reaches min_read_count
  noise.duplicate_copies = 1;
  noise.spurious_rate = spurious_rate;
  noise.seed = 17;
  rfid::InjectNoise(&w, noise);
  return w;
}

EngineOptions WithIngest(size_t min_read_count) {
  EngineOptions options;
  options.ingest.lateness_bound = Milliseconds(400);
  options.ingest.smoothing_window = Milliseconds(1);
  options.ingest.min_read_count = min_read_count;
  return options;
}

Timestamp LastTs(const rfid::Workload& w) {
  Timestamp last = kMinTimestamp;
  for (const auto& e : w.events) last = std::max(last, e.tuple.ts());
  return last;
}

// Feed + drain: the final AdvanceTime flushes the reorder buffer and
// cleaning hold-back, so every series pays its full pipeline cost.
void FeedAndDrain(Engine* engine, const rfid::Workload& w) {
  bench::Feed(engine, w);
  bench::CheckOk(engine->AdvanceTime(LastTs(w) + Minutes(10)), "drain");
}

// No-ingest baseline: the dedup pipeline alone, clean in-order trace.
void BM_IngestOffBaseline(benchmark::State& state) {
  const auto workload = CleanTrace();
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine;
    bench::CheckOk(engine.ExecuteScript(kDedupScript), "setup");
    state.ResumeTiming();
    FeedAndDrain(&engine, workload);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          workload.events.size());
}
BENCHMARK(BM_IngestOffBaseline);

// Cleaning overhead at zero noise: same clean trace, ingest stages
// enabled but with nothing to fix (min_read_count=1 keeps every read).
// The gap to BM_IngestOffBaseline is the price of running the stages.
void BM_IngestZeroNoiseOverhead(benchmark::State& state) {
  const auto workload = CleanTrace();
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine(WithIngest(1));
    bench::CheckOk(engine.ExecuteScript(kDedupScript), "setup");
    state.ResumeTiming();
    FeedAndDrain(&engine, workload);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          workload.events.size());
}
BENCHMARK(BM_IngestZeroNoiseOverhead);

// Throughput vs disorder magnitude (arg: max arrival shift, ms) at a
// fixed noise mix (every read duplicated once, 25% ghosts).
void BM_IngestDisorder(benchmark::State& state) {
  const auto workload = NoisyTrace(Milliseconds(state.range(0)), 0.25);
  uint64_t late = 0, dups = 0, ghosts = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine(WithIngest(2));
    bench::CheckOk(engine.ExecuteScript(kDedupScript), "setup");
    state.ResumeTiming();
    FeedAndDrain(&engine, workload);
    late = engine.ingest_pipeline()->reorder()->late_dropped();
    dups = engine.ingest_pipeline()->cleaning()->dups_suppressed();
    ghosts = engine.ingest_pipeline()->cleaning()->spurious_filtered();
  }
  if (late != 0) {
    std::fprintf(stderr, "bench invariant violated: %llu late drops\n",
                 static_cast<unsigned long long>(late));
    std::abort();  // the 400 ms bound covers every sweep point
  }
  const std::string prefix =
      "e17.shift" + std::to_string(state.range(0)) + ".";
  bench::Metrics().GetGauge(prefix + "dups_suppressed")
      ->Set(static_cast<int64_t>(dups));
  bench::Metrics().GetGauge(prefix + "spurious_filtered")
      ->Set(static_cast<int64_t>(ghosts));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          workload.events.size());
}
BENCHMARK(BM_IngestDisorder)->Arg(50)->Arg(200)->Arg(400);

// Throughput vs ghost-read rate (arg: spurious percent) at the worst
// disorder point — filtering work scales with injected garbage.
void BM_IngestNoiseRate(benchmark::State& state) {
  const auto workload =
      NoisyTrace(Milliseconds(400),
                 static_cast<double>(state.range(0)) / 100.0);
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine(WithIngest(2));
    bench::CheckOk(engine.ExecuteScript(kDedupScript), "setup");
    state.ResumeTiming();
    FeedAndDrain(&engine, workload);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          workload.events.size());
}
BENCHMARK(BM_IngestNoiseRate)->Arg(0)->Arg(25)->Arg(50);

}  // namespace
}  // namespace eslev

ESLEV_BENCH_MAIN()
