// E9 — §2.2: SEQ versus what plain SQL can do (a per-arrival n-way join
// over unbounded history).
//
// Paper claims: (i) join-based detection cannot purge history, so its
// state grows without bound and per-arrival cost grows with it;
// (ii) SEQ with windows / pairing modes holds state constant. Absolute
// numbers are machine-dependent; the *shape* — naive join degrading
// super-linearly in trace length while SEQ stays flat — is the result.

#include <benchmark/benchmark.h>

#include "baseline/naive_join.h"
#include "bench/bench_util.h"
#include "cep/seq_operator.h"
#include "expr/binder.h"
#include "sql/parser.h"

namespace eslev {
namespace {

rfid::Workload MakeTrace(size_t num_products) {
  rfid::QualityCheckWorkloadOptions options;
  options.num_products = num_products;
  options.stage_delay = Seconds(2);
  options.product_interval = Seconds(1);
  return rfid::MakeQualityCheckWorkload(options);
}

size_t PortOf(const std::string& stream) {
  return static_cast<size_t>(stream[1] - '1');
}

void BM_NaiveJoin(benchmark::State& state) {
  auto workload = MakeTrace(static_cast<size_t>(state.range(0)));
  uint64_t matches = 0;
  size_t history = 0;
  for (auto _ : state) {
    state.PauseTiming();
    baseline::NaiveJoinOptions options;
    options.num_streams = 4;
    options.key_column = 1;           // tagid equality
    options.window = Seconds(30);     // timing predicate, no purging
    baseline::NaiveJoinSequenceDetector det(options);
    state.ResumeTiming();
    for (const auto& e : workload.events) {
      bench::CheckOk(det.OnTuple(PortOf(e.stream), e.tuple), "tuple");
    }
    matches = det.matches();
    history = det.history_size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          workload.events.size());
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["final_history"] = static_cast<double>(history);
}
BENCHMARK(BM_NaiveJoin)->Arg(500)->Arg(2000)->Arg(8000);

void RunSeq(benchmark::State& state, PairingMode mode) {
  auto workload = MakeTrace(static_cast<size_t>(state.range(0)));
  FunctionRegistry registry;
  auto schema = Schema::Make({{"readerid", TypeId::kString},
                              {"tagid", TypeId::kString},
                              {"tagtime", TypeId::kTimestamp}});
  uint64_t matches = 0;
  size_t peak_history = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SeqOperatorConfig config;
    BindScope scope;
    for (int i = 1; i <= 4; ++i) {
      const std::string alias = "C" + std::to_string(i);
      scope.AddEntry({alias, schema, 0, false});
      config.positions.push_back({alias, schema, false});
    }
    config.mode = mode;
    Binder binder(&scope, &registry);
    auto bind = [&](const std::string& text) {
      auto parsed = ParseExpression(text);
      bench::CheckOk(parsed.status(), "parse");
      auto bound = binder.Bind(**parsed);
      bench::CheckOk(bound.status(), "bind");
      return std::move(bound).ValueUnsafe();
    };
    for (size_t pos = 0; pos < 3; ++pos) {
      PairwiseConstraint c;
      c.pos_a = pos;
      c.pos_b = 3;
      c.expr = bind("C" + std::to_string(pos + 1) + ".tagid = C4.tagid");
      config.pairwise.push_back(std::move(c));
    }
    config.projection.push_back(bind("C4.tagid"));
    config.out_schema = Schema::Make({{"tag", TypeId::kString}});
    SeqWindow w;
    w.length = Seconds(30);
    w.direction = WindowDirection::kPreceding;
    w.anchor = 3;
    config.window = w;
    auto op_result = SeqOperator::Make(std::move(config));
    bench::CheckOk(op_result.status(), "make");
    auto op = std::move(op_result).ValueUnsafe();
    peak_history = 0;
    state.ResumeTiming();
    for (const auto& e : workload.events) {
      bench::CheckOk(op->OnTuple(PortOf(e.stream), e.tuple), "tuple");
      peak_history = std::max(peak_history, op->history_size());
    }
    matches = op->matches_emitted();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          workload.events.size());
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["peak_history"] = static_cast<double>(peak_history);
}

void BM_SeqWindowedUnrestricted(benchmark::State& state) {
  RunSeq(state, PairingMode::kUnrestricted);
}
void BM_SeqChronicle(benchmark::State& state) {
  RunSeq(state, PairingMode::kChronicle);
}
BENCHMARK(BM_SeqWindowedUnrestricted)->Arg(500)->Arg(2000)->Arg(8000);
BENCHMARK(BM_SeqChronicle)->Arg(500)->Arg(2000)->Arg(8000);

// ---------------------------------------------------------------------------
// Star workload — Example 7's containment query SEQ(R1*, R2) MODE
// CHRONICLE over the packing trace, with its peak retained history.
// ---------------------------------------------------------------------------

std::unique_ptr<SeqOperator> MakeStarSeq(const FunctionRegistry& registry,
                                         BindScope* scope) {
  auto schema = Schema::Make({{"readerid", TypeId::kString},
                              {"tagid", TypeId::kString},
                              {"tagtime", TypeId::kTimestamp}});
  SeqOperatorConfig config;
  scope->AddEntry({"R1", schema, 0, true});
  scope->AddEntry({"R2", schema, 0, false});
  config.positions.push_back({"R1", schema, true});
  config.positions.push_back({"R2", schema, false});
  config.mode = PairingMode::kChronicle;
  Binder binder(scope, &registry);
  auto bind = [&](const std::string& text) {
    auto parsed = ParseExpression(text);
    bench::CheckOk(parsed.status(), "parse");
    auto bound = binder.Bind(**parsed);
    bench::CheckOk(bound.status(), "bind");
    return std::move(bound).ValueUnsafe();
  };
  config.star_gates.resize(config.positions.size());
  config.star_gates[0] = bind("R1.tagtime - R1.previous.tagtime <= 1 SECONDS");
  PairwiseConstraint c;
  c.pos_a = 0;
  c.pos_b = 1;
  c.expr = bind("R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS");
  config.pairwise.push_back(std::move(c));
  config.projection.push_back(bind("FIRST(R1*).tagtime"));
  config.projection.push_back(bind("COUNT(R1*)"));
  config.projection.push_back(bind("R2.tagid"));
  config.out_schema = Schema::Make({{"first_time", TypeId::kTimestamp},
                                    {"cnt", TypeId::kInt64},
                                    {"case_tag", TypeId::kString}});
  auto op = SeqOperator::Make(std::move(config));
  bench::CheckOk(op.status(), "make star seq");
  return std::move(op).ValueUnsafe();
}

void RunStarSeq(benchmark::State& state) {
  rfid::PackingWorkloadOptions options;
  options.num_cases = static_cast<size_t>(state.range(0));
  auto workload = rfid::MakePackingWorkload(options);
  FunctionRegistry registry;
  uint64_t matches = 0;
  size_t peak_history = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BindScope scope;
    auto op = MakeStarSeq(registry, &scope);
    peak_history = 0;
    state.ResumeTiming();
    for (const auto& e : workload.events) {
      bench::CheckOk(op->OnTuple(PortOf(e.stream), e.tuple), "tuple");
      peak_history = std::max(peak_history, op->history_size());
    }
    matches = op->matches_emitted();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          workload.events.size());
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["peak_history"] = static_cast<double>(peak_history);
}

void BM_SeqStarHistory(benchmark::State& state) { RunStarSeq(state); }
BENCHMARK(BM_SeqStarHistory)->Arg(200)->Arg(1000);

}  // namespace
}  // namespace eslev

ESLEV_BENCH_MAIN()
