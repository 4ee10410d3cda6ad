// E6 — §3.1.1: Tuple Pairing Modes ablation.
//
// Paper claims, per mode:
//   UNRESTRICTED  all combinations; history bounded only by the window;
//   RECENT        one event per trigger; "aggressive purge of tuple
//                 history, as earlier tuples are constantly replaced";
//   CHRONICLE     earliest match, consumed; history drains on match;
//   CONSECUTIVE   adjacency on the joint history; only the current run
//                 is retained.
//
// We run SEQ(C1, C2, C3, C4) over the same quality-check trace under
// each mode and report throughput, events emitted, and the operator's
// peak retained history (the paper's optimization story).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "cep/seq_operator.h"
#include "expr/binder.h"
#include "sql/parser.h"

namespace eslev {
namespace {

SchemaPtr ReadingSchema() {
  return Schema::Make({{"readerid", TypeId::kString},
                       {"tagid", TypeId::kString},
                       {"tagtime", TypeId::kTimestamp}});
}

// Build SEQ(C1..C4) with Example 6's per-product tag join conditions.
std::unique_ptr<SeqOperator> MakeSeq(PairingMode mode,
                                     const FunctionRegistry& registry,
                                     BindScope* scope) {
  auto schema = ReadingSchema();
  SeqOperatorConfig config;
  for (int i = 1; i <= 4; ++i) {
    const std::string alias = "C" + std::to_string(i);
    scope->AddEntry({alias, schema, 0, false});
    config.positions.push_back({alias, schema, false});
  }
  config.mode = mode;
  Binder binder(scope, &registry);
  auto bind = [&](const std::string& text) {
    auto parsed = ParseExpression(text);
    bench::CheckOk(parsed.status(), "parse");
    auto bound = binder.Bind(**parsed);
    bench::CheckOk(bound.status(), "bind");
    return std::move(bound).ValueUnsafe();
  };
  config.projection.push_back(bind("C1.tagtime"));
  config.projection.push_back(bind("C4.tagtime"));
  config.out_schema = Schema::Make(
      {{"start", TypeId::kTimestamp}, {"finish", TypeId::kTimestamp}});
  for (size_t pos = 0; pos < 3; ++pos) {
    PairwiseConstraint c;
    c.pos_a = pos;
    c.pos_b = 3;
    c.expr = bind("C" + std::to_string(pos + 1) + ".tagid = C4.tagid");
    config.pairwise.push_back(std::move(c));
  }
  // Window keeps UNRESTRICTED from exploding combinatorially; identical
  // across modes for a fair comparison.
  SeqWindow w;
  w.length = Seconds(30);
  w.direction = WindowDirection::kPreceding;
  w.anchor = 3;
  config.window = w;
  auto op = SeqOperator::Make(std::move(config));
  bench::CheckOk(op.status(), "make seq");
  return std::move(op).ValueUnsafe();
}

size_t PortOf(const std::string& stream) {
  return static_cast<size_t>(stream[1] - '1');
}

const char* ModeName(PairingMode mode) {
  switch (mode) {
    case PairingMode::kUnrestricted: return "unrestricted";
    case PairingMode::kRecent: return "recent";
    case PairingMode::kChronicle: return "chronicle";
    case PairingMode::kConsecutive: return "consecutive";
  }
  return "unknown";
}

// Un-timed replay recording the per-mode retained-history state series
// into the bench metrics blob (BENCH_*_metrics.json) under e6.<mode>.* —
// E6's state-size evidence comes from the metrics layer, not from the
// timed loop.
void RecordStateSeries(PairingMode mode, const rfid::Workload& workload,
                       const FunctionRegistry& registry) {
  BindScope scope;
  auto op = MakeSeq(mode, registry, &scope);
  const std::string prefix = std::string("e6.") + ModeName(mode) + ".";
  Histogram* retained =
      bench::Metrics().GetHistogram(prefix + "retained_history");
  size_t i = 0;
  for (const auto& e : workload.events) {
    bench::CheckOk(op->OnTuple(PortOf(e.stream), e.tuple), "tuple");
    if (++i % 64 == 0) retained->Observe(op->history_size());
  }
  bench::Metrics().GetGauge(prefix + "final_history")
      ->Set(static_cast<int64_t>(op->history_size()));
  bench::Metrics().GetGauge(prefix + "tuples_stored")
      ->Set(static_cast<int64_t>(op->tuples_stored()));
  bench::Metrics().GetGauge(prefix + "tuples_purged")
      ->Set(static_cast<int64_t>(op->tuples_purged()));
  bench::Metrics().GetGauge(prefix + "matches")
      ->Set(static_cast<int64_t>(op->matches_emitted()));
}

void RunMode(benchmark::State& state, PairingMode mode) {
  rfid::QualityCheckWorkloadOptions options;
  options.num_products = 2000;
  options.stage_delay = Seconds(2);
  options.product_interval = Seconds(1);
  auto workload = rfid::MakeQualityCheckWorkload(options);

  FunctionRegistry registry;
  uint64_t events = 0;
  size_t peak_history = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BindScope scope;
    auto op = MakeSeq(mode, registry, &scope);
    peak_history = 0;
    state.ResumeTiming();
    for (const auto& e : workload.events) {
      bench::CheckOk(op->OnTuple(PortOf(e.stream), e.tuple), "tuple");
      peak_history = std::max(peak_history, op->history_size());
    }
    events = op->matches_emitted();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          workload.events.size());
  state.counters["events"] = static_cast<double>(events);
  state.counters["peak_history"] = static_cast<double>(peak_history);
  RecordStateSeries(mode, workload, registry);
}

void BM_ModeUnrestricted(benchmark::State& state) {
  RunMode(state, PairingMode::kUnrestricted);
}
void BM_ModeRecent(benchmark::State& state) {
  RunMode(state, PairingMode::kRecent);
}
void BM_ModeChronicle(benchmark::State& state) {
  RunMode(state, PairingMode::kChronicle);
}
void BM_ModeConsecutive(benchmark::State& state) {
  RunMode(state, PairingMode::kConsecutive);
}
BENCHMARK(BM_ModeUnrestricted);
BENCHMARK(BM_ModeRecent);
BENCHMARK(BM_ModeChronicle);
BENCHMARK(BM_ModeConsecutive);

// The purging claim in isolation: RECENT with NO window must still hold
// constant history, while UNRESTRICTED without a window grows linearly.
void RunUnwindowed(benchmark::State& state, PairingMode mode) {
  rfid::QualityCheckWorkloadOptions options;
  options.num_products = static_cast<size_t>(state.range(0));
  auto workload = rfid::MakeQualityCheckWorkload(options);

  FunctionRegistry registry;
  size_t peak_history = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto schema = ReadingSchema();
    SeqOperatorConfig config;
    BindScope scope;
    for (int i = 1; i <= 4; ++i) {
      const std::string alias = "C" + std::to_string(i);
      scope.AddEntry({alias, schema, 0, false});
      config.positions.push_back({alias, schema, false});
    }
    config.mode = mode;
    Binder binder(&scope, &registry);
    auto parsed = ParseExpression("C1.tagtime");
    bench::CheckOk(parsed.status(), "parse");
    auto bound = binder.Bind(**parsed);
    bench::CheckOk(bound.status(), "bind");
    config.projection.push_back(std::move(bound).ValueUnsafe());
    config.out_schema = Schema::Make({{"start", TypeId::kTimestamp}});
    auto op_result = SeqOperator::Make(std::move(config));
    bench::CheckOk(op_result.status(), "make");
    auto op = std::move(op_result).ValueUnsafe();
    peak_history = 0;
    state.ResumeTiming();
    for (const auto& e : workload.events) {
      bench::CheckOk(op->OnTuple(PortOf(e.stream), e.tuple), "tuple");
      peak_history = std::max(peak_history, op->history_size());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          workload.events.size());
  state.counters["peak_history"] = static_cast<double>(peak_history);
  state.counters["tuples"] = static_cast<double>(workload.events.size());
}

void BM_UnwindowedRecentHistory(benchmark::State& state) {
  RunUnwindowed(state, PairingMode::kRecent);
}
void BM_UnwindowedConsecutiveHistory(benchmark::State& state) {
  RunUnwindowed(state, PairingMode::kConsecutive);
}
BENCHMARK(BM_UnwindowedRecentHistory)->Arg(500)->Arg(2000)->Arg(8000);
BENCHMARK(BM_UnwindowedConsecutiveHistory)->Arg(500)->Arg(2000)->Arg(8000);

}  // namespace
}  // namespace eslev

ESLEV_BENCH_MAIN()
