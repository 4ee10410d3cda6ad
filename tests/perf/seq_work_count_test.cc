// Work-count check (ctest label `perf`) for keyed SEQ matching (DESIGN.md
// §5): replays an Example 6 trace shaped like E19's `tenant_cep` quality
// line (a product every 10 ms, 200 ms between stages, 5 % of products
// losing one stage, a 1 s window) and counts the pairwise predicate
// evaluations (`pairwise_evals`) per C4 trigger. Keyed matching skips
// every history entry of another tag with one integer compare, so only
// the trigger's own product reaches the interpreter: about three
// evaluations per trigger in every pairing mode, whether the tag
// equalities are chained (C1=C2, C2=C3, C3=C4) or all written against C1.
// An unkeyed matcher interprets the equalities against the whole window
// instead: from about 15 to 156,000 evaluations per trigger on this
// trace, depending on the mode and the form.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/engine.h"
#include "rfid/workloads.h"

namespace eslev {
namespace {

// Pairwise evaluations allowed per C4 trigger: the three key equalities
// of the trigger's own product, plus slack for a 32-bit fold collision.
constexpr double kMaxEvalsPerTrigger = 4.0;

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

struct Form {
  const char* name;
  const char* equalities;
};

const Form kChained = {
    "chained",
    "C1.tagid = C2.tagid AND C2.tagid = C3.tagid AND C3.tagid = C4.tagid"};
const Form kAgainstC1 = {
    "all-against-C1",
    "C1.tagid = C2.tagid AND C1.tagid = C3.tagid AND C1.tagid = C4.tagid"};

rfid::Workload QualityTrace() {
  rfid::QualityCheckWorkloadOptions o;
  o.num_products = 600;
  o.stage_delay = Milliseconds(200);
  o.product_interval = Milliseconds(10);
  o.drop_rate = 0.05;
  o.seed = 1;
  return rfid::MakeQualityCheckWorkload(o);
}

// Runs Example 6 in `mode` with `form`'s equalities over the trace and
// returns the operator's pairwise evaluations; every complete product
// must match exactly once.
int64_t PairwiseEvals(const rfid::Workload& trace, const std::string& mode,
                      const Form& form) {
  Engine engine;
  EXPECT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM C1(readerid, tagid, tagtime);
    CREATE STREAM C2(readerid, tagid, tagtime);
    CREATE STREAM C3(readerid, tagid, tagtime);
    CREATE STREAM C4(readerid, tagid, tagtime);
  )sql")
                  .ok());
  auto q = engine.RegisterQuery(
      std::string("SELECT C4.tagid, C1.tagtime, C4.tagtime FROM C1, C2, C3, "
                  "C4 WHERE SEQ(C1, C2, C3, C4) OVER [1 SECONDS PRECEDING "
                  "C4] MODE ") +
      mode + " AND " + form.equalities);
  EXPECT_TRUE(q.ok()) << q.status();
  if (!q.ok()) return -1;
  size_t emitted = 0;
  EXPECT_TRUE(engine
                  .Subscribe(q->output_stream,
                             [&emitted](const Tuple&) { ++emitted; })
                  .ok());
  for (const rfid::TimedReading& e : trace.events) {
    EXPECT_TRUE(engine.PushTuple(e.stream, e.tuple).ok());
  }
  EXPECT_EQ(emitted, trace.expected_events) << mode << " " << form.name;
  int64_t evals = -1;
  for (const auto& [name, value] : engine.Metrics().gauges) {
    if (EndsWith(name, ".SeqOperator.pairwise_evals")) evals = value;
  }
  EXPECT_GE(evals, 0) << "no pairwise_evals stat";
  return evals;
}

class SeqWorkCountTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SeqWorkCountTest, KeyedMatchingInterpretsOnlyTheTriggersKey) {
  const std::string mode = GetParam();
  const rfid::Workload trace = QualityTrace();
  size_t triggers = 0;
  for (const rfid::TimedReading& e : trace.events) {
    if (e.stream == "C4") ++triggers;
  }
  ASSERT_GT(triggers, 500u);

  const int64_t chained = PairwiseEvals(trace, mode, kChained);
  const int64_t against_c1 = PairwiseEvals(trace, mode, kAgainstC1);
  for (const auto& [form, evals] :
       {std::make_pair(kChained.name, chained),
        std::make_pair(kAgainstC1.name, against_c1)}) {
    const double per_trigger =
        static_cast<double>(evals) / static_cast<double>(triggers);
    EXPECT_LE(per_trigger, kMaxEvalsPerTrigger)
        << mode << " " << form << ": " << evals
        << " pairwise evaluations for " << triggers << " C4 triggers";
  }
  // ROADMAP item 1's acceptance, as a counter: writing every equality
  // against C1 costs at most 1.5x the chained form.
  EXPECT_LE(static_cast<double>(against_c1), 1.5 * static_cast<double>(chained))
      << mode << ": all-against-C1 " << against_c1 << " vs chained "
      << chained;
}

INSTANTIATE_TEST_SUITE_P(Modes, SeqWorkCountTest,
                         ::testing::Values("CHRONICLE", "RECENT",
                                           "UNRESTRICTED"),
                         [](const ::testing::TestParamInfo<const char*>& p) {
                           return std::string(p.param);
                         });

}  // namespace
}  // namespace eslev
