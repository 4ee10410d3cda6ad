// Cases where the oracle written from the paper (oracle/seq_oracle.h)
// showed the history matcher contradicting the SEQ semantics of DESIGN.md
// §5. Each pins the expected rows and checks them on both. A last sweep
// draws the shapes that found them — up to four positions, a star or a
// negation anywhere they are allowed, windows on any anchor — and
// compares the two row for row.

#include <gtest/gtest.h>

#include <random>

#include "oracle/seq_oracle.h"
#include "tests/cep/seq_test_util.h"

namespace eslev {
namespace {

using cep_test::Reading;
using cep_test::SeqBuilder;

// Feeds (port, millisecond) arrivals to the matcher and the oracle built
// from `b`, expects both to emit the same rows, and returns the
// matcher's rows with every column read as milliseconds.
std::vector<std::vector<int64_t>> RunBoth(
    SeqBuilder& b, const std::vector<std::pair<size_t, int64_t>>& arrivals) {
  std::vector<SeqInput> inputs;
  for (const auto& [port, ms] : arrivals) {
    inputs.push_back(SeqInput::Arrival(
        port, Reading(b.schema(), "r", "x", Milliseconds(ms))));
  }
  auto expected = RunSeqOracle(b.Config(), inputs);
  EXPECT_TRUE(expected.ok()) << expected.status();
  auto op = b.Build();
  CollectOperator out;
  op->AddSink(&out);
  for (const SeqInput& in : inputs) {
    EXPECT_TRUE(op->OnTuple(in.port, in.tuple).ok());
  }
  std::vector<std::string> got;
  std::vector<std::string> want;
  std::vector<std::vector<int64_t>> rows;
  for (const Tuple& t : out.tuples()) {
    got.push_back(t.ToString());
    std::vector<int64_t> row;
    for (const Value& v : t.values()) {
      row.push_back(v.type() == TypeId::kTimestamp
                        ? v.time_value() / kMillisecond
                        : v.int_value());
    }
    rows.push_back(std::move(row));
  }
  if (expected.ok()) {
    for (const Tuple& t : *expected) want.push_back(t.ToString());
  }
  EXPECT_EQ(got, want) << "history matcher vs oracle";
  return rows;
}

using Rows = std::vector<std::vector<int64_t>>;

// SEQ(A, !B, C, D) MODE CHRONICLE: B@3 lies between C and D, not between
// A and C, so A@1, C@2, D@4 match. CHRONICLE's forward search used to
// check the negation against the trigger before C was bound.
TEST(SeqOracleRegressionTest, ChronicleNegationUsesItsOwnNeighbours) {
  SeqBuilder b({"A", "B", "C", "D"});
  b.Negated(1).Mode(PairingMode::kChronicle);
  b.Project({"A.tagtime", "C.tagtime", "D.tagtime"},
            {{"a", TypeId::kTimestamp},
             {"c", TypeId::kTimestamp},
             {"d", TypeId::kTimestamp}});
  EXPECT_EQ(RunBoth(b, {{0, 1000}, {2, 2000}, {1, 3000}, {3, 4000}}),
            (Rows{{1000, 2000, 4000}}));
}

// SEQ(A, !B, C, D) MODE RECENT: C@4 has B@3 after A@1, so the most
// recent qualifying combination falls back to C@2. RECENT's purge used
// to drop C@2 when C@4 arrived.
TEST(SeqOracleRegressionTest, RecentNegationKeepsTheFallback) {
  SeqBuilder b({"A", "B", "C", "D"});
  b.Negated(1).Mode(PairingMode::kRecent);
  b.Project({"A.tagtime", "C.tagtime", "D.tagtime"},
            {{"a", TypeId::kTimestamp},
             {"c", TypeId::kTimestamp},
             {"d", TypeId::kTimestamp}});
  EXPECT_EQ(RunBoth(b, {{0, 1000}, {2, 2000}, {1, 3000}, {2, 4000}, {3, 5000}}),
            (Rows{{1000, 2000, 5000}}));
}

// SEQ(A, B*) MODE RECENT: the trailing group opened at B@2 triggers again
// at B@2.8. Its most recent qualifying A is still A@1, because A@2.5
// arrived after the group began. RECENT's purge used to drop A@1 when
// A@2.5 arrived.
TEST(SeqOracleRegressionTest, RecentTrailingStarKeepsItsPartner) {
  SeqBuilder b({"A", "B"}, {false, true});
  b.Mode(PairingMode::kRecent)
      .StarGate(1, "B.tagtime - B.previous.tagtime <= 1 SECONDS");
  b.Project({"A.tagtime", "FIRST(B*).tagtime", "COUNT(B*)"},
            {{"a", TypeId::kTimestamp},
             {"first_b", TypeId::kTimestamp},
             {"count_b", TypeId::kInt64}});
  EXPECT_EQ(RunBoth(b, {{0, 1000}, {1, 2000}, {0, 2500}, {1, 2800}}),
            (Rows{{1000, 2000, 1}, {1000, 2000, 2}}));
}

// SEQ(A*, B, C) MODE RECENT: the open group [A@5] ended before B@5.5 when
// B arrived, then grew past it with A@6, so the group before B is [A@1].
// RECENT's purge used to keep only the open group.
TEST(SeqOracleRegressionTest, RecentOpenGroupGrowingPastItsSuccessor) {
  SeqBuilder b({"A", "B", "C"}, {true, false, false});
  b.Mode(PairingMode::kRecent)
      .StarGate(0, "A.tagtime - A.previous.tagtime <= 1 SECONDS");
  b.Project({"FIRST(A*).tagtime", "COUNT(A*)", "B.tagtime", "C.tagtime"},
            {{"first_a", TypeId::kTimestamp},
             {"count_a", TypeId::kInt64},
             {"b", TypeId::kTimestamp},
             {"c", TypeId::kTimestamp}});
  EXPECT_EQ(RunBoth(b, {{0, 1000}, {0, 5000}, {1, 5500}, {0, 6000}, {2, 7000}}),
            (Rows{{1000, 1, 5500, 7000}}));
}

// SEQ(A, B, C) OVER [10 SECONDS PRECEDING B] MODE RECENT: with B@21 as
// the anchor A@1 is out of the window, so the search falls back to B@6.
// RECENT's purge used to drop B@6 when B@21 arrived.
TEST(SeqOracleRegressionTest, RecentWindowAnchoredBeforeTheTrigger) {
  SeqBuilder b({"A", "B", "C"});
  b.Mode(PairingMode::kRecent)
      .Window(Seconds(10), WindowDirection::kPreceding, 1);
  EXPECT_EQ(RunBoth(b, {{0, 1000}, {1, 6000}, {1, 21000}, {2, 22000}}),
            (Rows{{1000, 6000, 22000}}));
}

// A random SEQ over up to four positions and a random two-tag trace:
// the matcher must emit the oracle's rows in the oracle's order.
void ExpectRandomShapeMatchesOracle(uint32_t seed) {
  std::mt19937 rng(seed);
  const auto pct = [&rng] {
    return std::uniform_int_distribution<int>(0, 99)(rng);
  };
  const size_t n = 2 + rng() % 3;
  std::vector<std::string> aliases;
  for (size_t i = 0; i < n; ++i) aliases.push_back("P" + std::to_string(i));
  std::vector<bool> stars(n, false);
  std::vector<bool> negated(n, false);
  if (pct() < 40) stars[rng() % n] = true;
  if (n >= 3 && pct() < 40) {
    const size_t k = 1 + rng() % (n - 2);  // never the first or the last
    negated[k] = !stars[k];
  }
  SeqBuilder b(aliases, stars);
  const PairingMode modes[] = {PairingMode::kUnrestricted,
                               PairingMode::kRecent, PairingMode::kChronicle,
                               PairingMode::kConsecutive};
  b.Mode(modes[rng() % 4]);
  std::vector<size_t> plain;
  for (size_t i = 0; i < n; ++i) {
    if (negated[i]) {
      b.Negated(i);
    } else {
      plain.push_back(i);
    }
    if (stars[i] && pct() < 70) {
      b.StarGate(i, aliases[i] + ".tagtime - " + aliases[i] +
                        ".previous.tagtime <= 1 SECONDS");
    }
  }
  if (plain.size() < 2) return;  // SEQ needs two matchable positions
  if (pct() < 50) {
    const WindowDirection dirs[] = {WindowDirection::kPreceding,
                                    WindowDirection::kFollowing,
                                    WindowDirection::kPrecedingAndFollowing};
    b.Window(Seconds(3 + static_cast<int64_t>(rng() % 12)), dirs[rng() % 3],
             plain[rng() % plain.size()]);
  }
  if (pct() < 40) {
    size_t x = plain[rng() % plain.size()];
    size_t y = plain[rng() % plain.size()];
    if (x > y) std::swap(x, y);
    if (x != y) {
      b.Pairwise(x, y, aliases[x] + ".tagid = " + aliases[y] + ".tagid");
    }
  }
  if (pct() < 20) {
    b.FinalCheck(aliases[n - 1] + ".tagtime - " + aliases[0] +
                 ".tagtime <= 6 SECONDS");
  }
  std::vector<std::string> projection;
  std::vector<Field> fields;
  for (size_t i : plain) {
    if (stars[i]) {
      projection.push_back("FIRST(" + aliases[i] + "*).tagtime");
      projection.push_back("COUNT(" + aliases[i] + "*)");
      fields.push_back({"first" + std::to_string(i), TypeId::kTimestamp});
      fields.push_back({"count" + std::to_string(i), TypeId::kInt64});
    } else {
      projection.push_back(aliases[i] + ".tagtime");
      fields.push_back({"t" + std::to_string(i), TypeId::kTimestamp});
    }
  }
  b.Project(projection, std::move(fields));

  std::vector<SeqInput> inputs;
  Timestamp now = Seconds(1);
  const size_t length = 20 + rng() % 40;
  for (size_t k = 0; k < length; ++k) {
    const size_t port = rng() % n;
    const std::string tag = "t" + std::to_string(rng() % 2);
    inputs.push_back(
        SeqInput::Arrival(port, Reading(b.schema(), "r", tag, now)));
    now += Milliseconds(100 + static_cast<int64_t>(rng() % 1900));
  }
  auto expected = RunSeqOracle(b.Config(), inputs);
  ASSERT_TRUE(expected.ok()) << expected.status();
  auto op = b.Build();
  CollectOperator out;
  op->AddSink(&out);
  for (const SeqInput& in : inputs) {
    ASSERT_TRUE(op->OnTuple(in.port, in.tuple).ok());
  }
  std::vector<std::string> got;
  std::vector<std::string> want;
  for (const Tuple& t : out.tuples()) got.push_back(t.ToString());
  for (const Tuple& t : *expected) want.push_back(t.ToString());
  ASSERT_EQ(got, want) << "seed " << seed;
}

TEST(SeqOracleRegressionTest, RandomShapesMatchOracle) {
  for (uint32_t seed = 1; seed <= 600; ++seed) {
    ExpectRandomShapeMatchesOracle(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace eslev
