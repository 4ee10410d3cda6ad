// The paper's §3.1.1 worked example, reproduced exactly.
//
// Joint tuple history: [t1:C1, t2:C1, t3:C2, t4:C3, t5:C3, t6:C2, t7:C4]
//
//  UNRESTRICTED -> 4 events:
//    (t1,t3,t4,t7) (t1,t3,t5,t7) (t2,t3,t4,t7) (t2,t3,t5,t7)
//  RECENT       -> 1 event: (t2,t3,t5,t7)
//  CHRONICLE    -> 1 event: (t1,t3,t4,t7), participants consumed
//  CONSECUTIVE  -> no event
//
// Every golden runs on both matchers: the history matcher and the
// brute-force oracle written from the paper (oracle/seq_oracle.h).

#include <gtest/gtest.h>

#include "oracle/seq_oracle.h"
#include "tests/cep/seq_test_util.h"

namespace eslev {
namespace {

using cep_test::Reading;
using cep_test::SeqBuilder;

enum class Matcher { kHistory, kOracle };
constexpr Matcher kMatchers[] = {Matcher::kHistory, Matcher::kOracle};

const char* MatcherName(Matcher m) {
  return m == Matcher::kHistory ? "history matcher" : "oracle";
}

// SEQ(C1, C2, C3, C4) in one pairing mode, on one matcher.
class Runner {
 public:
  Runner(Matcher matcher, PairingMode mode)
      : builder_({"C1", "C2", "C3", "C4"}) {
    builder_.Mode(mode);
    if (matcher == Matcher::kOracle) {
      config_ = &builder_.Config();
    } else {
      op_ = builder_.Build();
      op_->AddSink(&out_);
    }
  }

  void Push(size_t port, int64_t second) {
    const Tuple t = Reading(builder_.schema(), "r", "x", Seconds(second));
    if (op_ != nullptr) {
      ASSERT_TRUE(op_->OnTuple(port, t).ok());
    }
    inputs_.push_back(SeqInput::Arrival(port, t));
  }

  // Everything emitted so far, in emission order.
  std::vector<Tuple> Rows() const {
    if (op_ != nullptr) return out_.tuples();
    auto rows = RunSeqOracle(*config_, inputs_);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return rows.ok() ? *rows : std::vector<Tuple>{};
  }

  // The history matcher, for state assertions; null on the oracle.
  const SeqOperator* op() const { return op_.get(); }

 private:
  SeqBuilder builder_;
  const SeqOperatorConfig* config_ = nullptr;
  std::unique_ptr<SeqOperator> op_;
  CollectOperator out_;
  std::vector<SeqInput> inputs_;
};

class WalkthroughTest : public ::testing::Test {
 protected:
  // Feeds the §3.1.1 history.
  void Feed(Runner* run) {
    run->Push(0, 1);  // t1:C1
    run->Push(0, 2);  // t2:C1
    run->Push(1, 3);  // t3:C2
    run->Push(2, 4);  // t4:C3
    run->Push(2, 5);  // t5:C3
    run->Push(1, 6);  // t6:C2
    run->Push(3, 7);  // t7:C4
  }

  // Events as (t1,t2,t3,t4) second-quadruples.
  std::vector<std::array<int64_t, 4>> Events(const std::vector<Tuple>& rows) {
    std::vector<std::array<int64_t, 4>> es;
    for (const Tuple& t : rows) {
      es.push_back({t.value(0).time_value() / kSecond,
                    t.value(1).time_value() / kSecond,
                    t.value(2).time_value() / kSecond,
                    t.value(3).time_value() / kSecond});
    }
    std::sort(es.begin(), es.end());
    return es;
  }
};

TEST_F(WalkthroughTest, Unrestricted) {
  for (Matcher m : kMatchers) {
    SCOPED_TRACE(MatcherName(m));
    Runner run(m, PairingMode::kUnrestricted);
    Feed(&run);
    auto es = Events(run.Rows());
    ASSERT_EQ(es.size(), 4u);
    EXPECT_EQ(es[0], (std::array<int64_t, 4>{1, 3, 4, 7}));
    EXPECT_EQ(es[1], (std::array<int64_t, 4>{1, 3, 5, 7}));
    EXPECT_EQ(es[2], (std::array<int64_t, 4>{2, 3, 4, 7}));
    EXPECT_EQ(es[3], (std::array<int64_t, 4>{2, 3, 5, 7}));
  }
}

TEST_F(WalkthroughTest, Recent) {
  for (Matcher m : kMatchers) {
    SCOPED_TRACE(MatcherName(m));
    Runner run(m, PairingMode::kRecent);
    Feed(&run);
    auto es = Events(run.Rows());
    ASSERT_EQ(es.size(), 1u);
    // "(t2:C1, t3:C2, t5:C3, t7:C4)" — C2:t6 is not qualifying (it is
    // after C3:t5), so C2:t3 is used, and C1:t2 not C1:t1.
    EXPECT_EQ(es[0], (std::array<int64_t, 4>{2, 3, 5, 7}));
  }
}

TEST_F(WalkthroughTest, Chronicle) {
  for (Matcher m : kMatchers) {
    SCOPED_TRACE(MatcherName(m));
    Runner run(m, PairingMode::kChronicle);
    Feed(&run);
    auto es = Events(run.Rows());
    ASSERT_EQ(es.size(), 1u);
    EXPECT_EQ(es[0], (std::array<int64_t, 4>{1, 3, 4, 7}));
    // Participants were consumed: t2:C1, t5:C3, t6:C2 remain.
    if (run.op() != nullptr) {
      EXPECT_EQ(run.op()->history_size(), 3u);
    }
  }
}

TEST_F(WalkthroughTest, ChronicleConsumptionAllowsSecondMatch) {
  for (Matcher m : kMatchers) {
    SCOPED_TRACE(MatcherName(m));
    Runner run(m, PairingMode::kChronicle);
    Feed(&run);
    // Remaining history: t2:C1, t6:C2, t5:C3 — out of order (C3 before
    // C2), so another C4 cannot complete a second event... C3:t5 < C2:t6
    // means SEQ(C1@2, C2@6, C3@?, C4) needs a C3 after t6.
    run.Push(3, 8);
    EXPECT_EQ(run.Rows().size(), 1u);
    // Provide the missing C3 and a final C4: now a second event forms.
    run.Push(2, 9);
    run.Push(3, 10);
    const std::vector<Tuple> rows = run.Rows();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1].value(0).time_value(), Seconds(2));
    EXPECT_EQ(rows[1].value(1).time_value(), Seconds(6));
    EXPECT_EQ(rows[1].value(2).time_value(), Seconds(9));
    if (run.op() != nullptr) {
      EXPECT_EQ(run.op()->history_size(), 1u);  // only t5:C3 left
    }
  }
}

TEST_F(WalkthroughTest, Consecutive) {
  for (Matcher m : kMatchers) {
    SCOPED_TRACE(MatcherName(m));
    Runner run(m, PairingMode::kConsecutive);
    Feed(&run);
    EXPECT_TRUE(run.Rows().empty());
  }
}

TEST_F(WalkthroughTest, ConsecutiveMatchesAdjacentRun) {
  for (Matcher m : kMatchers) {
    SCOPED_TRACE(MatcherName(m));
    Runner run(m, PairingMode::kConsecutive);
    run.Push(0, 1);
    run.Push(1, 2);
    run.Push(2, 3);
    run.Push(3, 4);
    ASSERT_EQ(run.Rows().size(), 1u);
    if (run.op() != nullptr) {
      EXPECT_EQ(run.op()->history_size(), 0u);  // run consumed
    }
    // An interrupted run produces nothing and resets.
    run.Push(0, 5);
    run.Push(1, 6);
    run.Push(1, 7);  // interruption (C2 repeated)
    run.Push(2, 8);
    run.Push(3, 9);
    EXPECT_EQ(run.Rows().size(), 1u);
    // A clean run restarts from C1.
    run.Push(0, 10);
    run.Push(1, 11);
    run.Push(2, 12);
    run.Push(3, 13);
    EXPECT_EQ(run.Rows().size(), 2u);
  }
}

}  // namespace
}  // namespace eslev
