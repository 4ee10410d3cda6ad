// Property-based sweeps over random traces: the pairing modes must
// relate to each other as the §3.1.1 semantics dictate, and the
// operator must agree with the brute-force oracle written from the paper
// (oracle/seq_oracle.h).

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "baseline/naive_join.h"
#include "oracle/seq_oracle.h"
#include "tests/cep/seq_test_util.h"

namespace eslev {
namespace {

using cep_test::Reading;
using cep_test::SeqBuilder;

struct TraceEvent {
  size_t stream;
  Tuple tuple;
};

// Random interleaved trace over `num_streams` streams.
std::vector<TraceEvent> MakeTrace(size_t seed, size_t num_streams,
                                  size_t length) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> stream_dist(0, num_streams - 1);
  auto schema = cep_test::ReadingSchema();
  std::vector<TraceEvent> trace;
  for (size_t i = 0; i < length; ++i) {
    trace.push_back(
        {stream_dist(rng), Reading(schema, "r", "x", Seconds(i + 1))});
  }
  return trace;
}

// Collect each event's projected (t1, ..., tn) signature.
std::multiset<std::vector<Timestamp>> RunMode(
    const std::vector<TraceEvent>& trace, size_t n, PairingMode mode) {
  std::vector<std::string> aliases;
  for (size_t i = 0; i < n; ++i) aliases.push_back("S" + std::to_string(i));
  SeqBuilder b(aliases);
  auto op = b.Mode(mode).Build();
  CollectOperator out;
  op->AddSink(&out);
  for (const auto& e : trace) {
    EXPECT_TRUE(op->OnTuple(e.stream, e.tuple).ok());
  }
  std::multiset<std::vector<Timestamp>> events;
  for (const Tuple& t : out.tuples()) {
    std::vector<Timestamp> sig;
    for (size_t i = 0; i < n; ++i) sig.push_back(t.value(i).time_value());
    events.insert(sig);
  }
  return events;
}

// gtest prints the parameter's raw bytes into every test name, so the
// struct has no padding: each byte belongs to a field and the name is
// the same on every discovery.
struct SweepParam {
  size_t seed;
  size_t num_streams;
  size_t length;
};
static_assert(sizeof(SweepParam) == 3 * sizeof(size_t));

class SeqModePropertyTest : public ::testing::TestWithParam<SweepParam> {};

// The emitted rows in every pairing mode, in emission order, equal the
// oracle's.
TEST_P(SeqModePropertyTest, UnrestrictedMatchesBruteForceOracle) {
  const auto& p = GetParam();
  auto trace = MakeTrace(p.seed, p.num_streams, p.length);
  std::vector<std::string> aliases;
  for (size_t i = 0; i < p.num_streams; ++i) {
    aliases.push_back("S" + std::to_string(i));
  }
  std::vector<SeqInput> inputs;
  for (const auto& e : trace) {
    inputs.push_back(SeqInput::Arrival(e.stream, e.tuple));
  }
  for (PairingMode mode :
       {PairingMode::kUnrestricted, PairingMode::kRecent,
        PairingMode::kChronicle, PairingMode::kConsecutive}) {
    SeqBuilder b(aliases);
    b.Mode(mode);
    auto expected = RunSeqOracle(b.Config(), inputs);
    ASSERT_TRUE(expected.ok()) << expected.status();
    auto op = b.Build();
    CollectOperator out;
    op->AddSink(&out);
    for (const auto& e : trace) {
      ASSERT_TRUE(op->OnTuple(e.stream, e.tuple).ok());
    }
    std::vector<std::string> got;
    std::vector<std::string> want;
    for (const Tuple& t : out.tuples()) got.push_back(t.ToString());
    for (const Tuple& t : *expected) want.push_back(t.ToString());
    EXPECT_EQ(got, want) << PairingModeToString(mode);
  }
}

TEST_P(SeqModePropertyTest, RestrictedModesAreSubsetsOfUnrestricted) {
  const auto& p = GetParam();
  auto trace = MakeTrace(p.seed, p.num_streams, p.length);
  auto unrestricted =
      RunMode(trace, p.num_streams, PairingMode::kUnrestricted);
  for (PairingMode mode : {PairingMode::kRecent, PairingMode::kChronicle,
                           PairingMode::kConsecutive}) {
    auto events = RunMode(trace, p.num_streams, mode);
    for (const auto& sig : events) {
      EXPECT_TRUE(unrestricted.count(sig) > 0)
          << PairingModeToString(mode) << " produced an event not in "
          << "UNRESTRICTED";
    }
  }
}

TEST_P(SeqModePropertyTest, RecentEmitsAtMostOnePerTrigger) {
  const auto& p = GetParam();
  auto trace = MakeTrace(p.seed, p.num_streams, p.length);
  size_t triggers = 0;
  for (const auto& e : trace) {
    if (e.stream == p.num_streams - 1) ++triggers;
  }
  auto events = RunMode(trace, p.num_streams, PairingMode::kRecent);
  EXPECT_LE(events.size(), triggers);
}

TEST_P(SeqModePropertyTest, ChronicleUsesEachTupleAtMostOnce) {
  const auto& p = GetParam();
  auto trace = MakeTrace(p.seed, p.num_streams, p.length);
  auto events = RunMode(trace, p.num_streams, PairingMode::kChronicle);
  // Timestamps are unique in the trace, so per-position multiset of
  // timestamps must have no duplicates.
  for (size_t pos = 0; pos < p.num_streams; ++pos) {
    std::set<Timestamp> seen;
    for (const auto& sig : events) {
      EXPECT_TRUE(seen.insert(sig[pos]).second)
          << "CHRONICLE reused the tuple at position " << pos;
    }
  }
}

TEST_P(SeqModePropertyTest, ConsecutiveEventsAreAdjacentRuns) {
  const auto& p = GetParam();
  auto trace = MakeTrace(p.seed, p.num_streams, p.length);
  auto events = RunMode(trace, p.num_streams, PairingMode::kConsecutive);
  // For each event, the chosen tuples must be consecutive in the trace.
  for (const auto& sig : events) {
    // Find the trace index of the first element; subsequent ones must
    // follow immediately.
    size_t idx = 0;
    while (idx < trace.size() && trace[idx].tuple.ts() != sig[0]) ++idx;
    ASSERT_LT(idx, trace.size());
    for (size_t pos = 1; pos < p.num_streams; ++pos) {
      ASSERT_LT(idx + pos, trace.size());
      EXPECT_EQ(trace[idx + pos].tuple.ts(), sig[pos])
          << "CONSECUTIVE event is not an adjacent run";
    }
  }
}

TEST_P(SeqModePropertyTest, NaiveJoinAgreesWithUnrestricted) {
  const auto& p = GetParam();
  auto trace = MakeTrace(p.seed, p.num_streams, p.length);
  baseline::NaiveJoinOptions options;
  options.num_streams = p.num_streams;
  baseline::NaiveJoinSequenceDetector det(options);
  for (const auto& e : trace) {
    ASSERT_TRUE(det.OnTuple(e.stream, e.tuple).ok());
  }
  auto events = RunMode(trace, p.num_streams, PairingMode::kUnrestricted);
  EXPECT_EQ(det.matches(), events.size());
}

TEST_P(SeqModePropertyTest, WindowedOutputIsSpanFilteredUnwindowed) {
  const auto& p = GetParam();
  auto trace = MakeTrace(p.seed, p.num_streams, p.length);
  const Duration window = Seconds(7);

  std::vector<std::string> aliases;
  for (size_t i = 0; i < p.num_streams; ++i) {
    aliases.push_back("S" + std::to_string(i));
  }
  SeqBuilder b(aliases);
  b.Window(window, WindowDirection::kPreceding, p.num_streams - 1);
  auto op = b.Mode(PairingMode::kUnrestricted).Build();
  CollectOperator out;
  op->AddSink(&out);
  for (const auto& e : trace) {
    ASSERT_TRUE(op->OnTuple(e.stream, e.tuple).ok());
  }
  std::multiset<std::vector<Timestamp>> windowed;
  for (const Tuple& t : out.tuples()) {
    std::vector<Timestamp> sig;
    for (size_t i = 0; i < p.num_streams; ++i) {
      sig.push_back(t.value(i).time_value());
    }
    windowed.insert(sig);
  }

  auto unwindowed =
      RunMode(trace, p.num_streams, PairingMode::kUnrestricted);
  std::multiset<std::vector<Timestamp>> filtered;
  for (const auto& sig : unwindowed) {
    if (sig.back() - sig.front() <= window) filtered.insert(sig);
  }
  EXPECT_EQ(windowed, filtered);
}

INSTANTIATE_TEST_SUITE_P(
    RandomTraces, SeqModePropertyTest,
    ::testing::Values(SweepParam{1, 2, 24}, SweepParam{2, 2, 40},
                      SweepParam{3, 3, 24}, SweepParam{4, 3, 36},
                      SweepParam{5, 4, 28}, SweepParam{6, 4, 36},
                      SweepParam{7, 3, 30}, SweepParam{8, 2, 32},
                      SweepParam{9, 4, 24}, SweepParam{10, 3, 40}),
    [](const ::testing::TestParamInfo<SweepParam>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_n" +
             std::to_string(param_info.param.num_streams) + "_len" +
             std::to_string(param_info.param.length);
    });

}  // namespace
}  // namespace eslev
