// Property sweeps for Example 1's duplicate elimination over randomized
// workloads: the output must be duplicate-free at the threshold, must
// cover every input reading, and must be a subset of the input.

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "core/engine.h"
#include "rfid/workloads.h"

namespace eslev {
namespace {

struct DedupParam {
  uint32_t seed;
  size_t duplicates;
  int spread_ms;
};

// gtest would otherwise print the struct's raw bytes, padding included,
// into every test name.
void PrintTo(const DedupParam& p, std::ostream* os) {
  *os << "seed=" << p.seed << " duplicates=" << p.duplicates
      << " spread_ms=" << p.spread_ms;
}

class DedupPropertyTest : public ::testing::TestWithParam<DedupParam> {};

TEST_P(DedupPropertyTest, Invariants) {
  const auto& p = GetParam();
  rfid::DuplicateWorkloadOptions options;
  options.seed = p.seed;
  options.num_distinct = 300;
  options.duplicates_per_read = p.duplicates;
  options.duplicate_spread = Milliseconds(p.spread_ms);
  auto workload = rfid::MakeDuplicateWorkload(options);

  Engine engine;
  ASSERT_TRUE(engine.ExecuteScript(R"sql(
    CREATE STREAM readings(reader_id, tag_id, read_time);
    CREATE STREAM cleaned(reader_id, tag_id, read_time);
    INSERT INTO cleaned
    SELECT * FROM readings AS r1
    WHERE NOT EXISTS
      (SELECT * FROM TABLE( readings OVER
          (RANGE 1 seconds PRECEDING CURRENT)) AS r2
       WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);
  )sql")
                  .ok());

  std::vector<Tuple> output;
  ASSERT_TRUE(engine.Subscribe("cleaned", [&](const Tuple& t) {
                      output.push_back(t);
                    }).ok());
  std::multiset<std::tuple<std::string, std::string, Timestamp>> inputs;
  for (const auto& e : workload.events) {
    inputs.insert({e.tuple.value(0).string_value(),
                   e.tuple.value(1).string_value(), e.tuple.ts()});
    ASSERT_TRUE(engine.PushTuple(e.stream, e.tuple).ok());
  }

  // P1: no two output readings with the same key within the threshold.
  std::map<std::pair<std::string, std::string>, Timestamp> last_kept;
  for (const Tuple& t : output) {
    auto key = std::make_pair(t.value(0).string_value(),
                              t.value(1).string_value());
    auto it = last_kept.find(key);
    if (it != last_kept.end()) {
      EXPECT_GT(t.ts() - it->second, Seconds(1))
          << "duplicate survived: " << t.ToString();
    }
    last_kept[key] = t.ts();
  }

  // P2: the output is a subset of the input.
  for (const Tuple& t : output) {
    EXPECT_TRUE(inputs.count({t.value(0).string_value(),
                              t.value(1).string_value(), t.ts()}) > 0)
        << "output tuple not in input: " << t.ToString();
  }

  // P3: every input reading is represented — some output with the same
  // key exists within the threshold at or before it.
  std::map<std::pair<std::string, std::string>, std::vector<Timestamp>>
      kept_times;
  for (const Tuple& t : output) {
    kept_times[{t.value(0).string_value(), t.value(1).string_value()}]
        .push_back(t.ts());
  }
  for (const auto& e : workload.events) {
    auto key = std::make_pair(e.tuple.value(0).string_value(),
                              e.tuple.value(1).string_value());
    const auto& times = kept_times[key];
    bool covered = false;
    for (Timestamp kept : times) {
      if (kept <= e.tuple.ts() && e.tuple.ts() - kept <= Seconds(1)) {
        covered = true;
        break;
      }
    }
    // A duplicate may also be covered transitively through a chain of
    // suppressed readings; with the generator's spread <= 1 s the direct
    // check suffices.
    EXPECT_TRUE(covered) << "input reading not represented: "
                         << e.tuple.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DedupPropertyTest,
    ::testing::Values(DedupParam{11, 0, 500}, DedupParam{12, 1, 300},
                      DedupParam{13, 2, 800}, DedupParam{14, 5, 999},
                      DedupParam{15, 8, 100}, DedupParam{16, 3, 650}),
    [](const ::testing::TestParamInfo<DedupParam>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_dup" +
             std::to_string(param_info.param.duplicates) + "_spread" +
             std::to_string(param_info.param.spread_ms);
    });

}  // namespace
}  // namespace eslev
