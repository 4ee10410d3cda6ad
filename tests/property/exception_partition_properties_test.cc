// Cross-operator consistency sweeps for EXCEPTION_SEQ / CLEVEL_SEQ /
// SEQ-CONSECUTIVE over random traces:
//   * CLEVEL = n events   == SEQ(...) MODE CONSECUTIVE events
//     (both define "the sequence completed as an adjacent run");
//   * CLEVEL < n events   == EXCEPTION_SEQ events;
//   * every arrival drives at most a bounded number of terminals.

#include <gtest/gtest.h>

#include <ostream>
#include <random>

#include "core/engine.h"

namespace eslev {
namespace {

struct Param {
  uint32_t seed;
  size_t length;
};

// gtest would otherwise print the struct's raw bytes, padding included,
// into every test name.
void PrintTo(const Param& p, std::ostream* os) {
  *os << "seed=" << p.seed << " length=" << p.length;
}

class ExceptionPartitionTest : public ::testing::TestWithParam<Param> {};

TEST_P(ExceptionPartitionTest, ClevelCompletionsMatchConsecutiveSeq) {
  const auto& p = GetParam();
  std::mt19937 rng(p.seed);
  std::uniform_int_distribution<size_t> stream_dist(0, 2);

  Engine engine;
  ASSERT_TRUE(engine.ExecuteScript(R"sql(
    CREATE STREAM A1(staffid, tagid, tagtime);
    CREATE STREAM A2(staffid, tagid, tagtime);
    CREATE STREAM A3(staffid, tagid, tagtime);
  )sql")
                  .ok());

  auto completions = engine.RegisterQuery(R"sql(
    SELECT A1.tagid FROM A1, A2, A3
    WHERE (CLEVEL_SEQ(A1, A2, A3)) = 3
  )sql");
  ASSERT_TRUE(completions.ok()) << completions.status();
  auto exceptions = engine.RegisterQuery(R"sql(
    SELECT A1.tagid FROM A1, A2, A3
    WHERE EXCEPTION_SEQ(A1, A2, A3)
  )sql");
  ASSERT_TRUE(exceptions.ok()) << exceptions.status();
  auto consecutive = engine.RegisterQuery(R"sql(
    SELECT A1.tagid FROM A1, A2, A3
    WHERE SEQ(A1, A2, A3) MODE CONSECUTIVE
  )sql");
  ASSERT_TRUE(consecutive.ok()) << consecutive.status();

  size_t n_complete = 0, n_exception = 0, n_consecutive = 0;
  ASSERT_TRUE(engine.Subscribe(completions->output_stream,
                               [&](const Tuple&) { ++n_complete; })
                  .ok());
  ASSERT_TRUE(engine.Subscribe(exceptions->output_stream,
                               [&](const Tuple&) { ++n_exception; })
                  .ok());
  ASSERT_TRUE(engine.Subscribe(consecutive->output_stream,
                               [&](const Tuple&) { ++n_consecutive; })
                  .ok());

  for (size_t i = 0; i < p.length; ++i) {
    const size_t s = stream_dist(rng);
    const Timestamp ts = Seconds(static_cast<int64_t>(i + 1));
    ASSERT_TRUE(engine
                    .Push("A" + std::to_string(s + 1),
                          {Value::String("staff"),
                           Value::String("op" + std::to_string(s)),
                           Value::Time(ts)},
                          ts)
                    .ok());
  }

  // Both definitions of "completed adjacent A1,A2,A3 run" must agree.
  EXPECT_EQ(n_complete, n_consecutive);
  // Terminals are bounded: each arrival raises at most 2 exceptions
  // (abandoned partial + unstartable incoming tuple).
  EXPECT_LE(n_exception, 2 * p.length);
  // On a uniform random trace of meaningful length something happens.
  if (p.length >= 30) {
    EXPECT_GT(n_exception + n_complete, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExceptionPartitionTest,
    ::testing::Values(Param{31, 10}, Param{32, 30}, Param{33, 60},
                      Param{34, 100}, Param{35, 200}, Param{36, 500}),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_len" +
             std::to_string(param_info.param.length);
    });

}  // namespace
}  // namespace eslev
