// Agreement sweep between EXPLAIN LINT and EXPLAIN COST (DESIGN.md §11,
// §16). Over a grid of SEQ and EXCEPTION_SEQ shapes — 2 to 4 positions,
// no star or one anywhere, no negation or one interior negation, every
// pairing mode, four windows, with and without a tag chain — the
// `unbounded-retention` lint fires exactly when the state bound of the
// SEQ-family operator is unbounded, since the rule renders that bound,
// and once more on each argument whose open star group the bound's
// formula names. Over the same grid plus joins and correlated NOT
// EXISTS shapes, the `shard-fallback` lint fires exactly when the cost
// report's sharding verdict is "single-shard", since both read one
// partitioning verdict.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "core/engine.h"

namespace eslev {
namespace {

/// One grid statement and where its SEQ and each argument start.
struct GridStatement {
  std::string sql;
  bool exception_seq = false;
  size_t seq_offset = 0;
  std::vector<size_t> arg_offsets;
  /// The matcher purges nothing here: UNRESTRICTED, or RECENT with a
  /// pairwise condition, under no evicting window.
  bool retains_everything = false;
};

std::vector<GridStatement> Grid() {
  const std::vector<std::string> modes = {"", " MODE RECENT",
                                          " MODE CHRONICLE",
                                          " MODE CONSECUTIVE"};
  std::vector<GridStatement> grid;
  std::set<std::string> seen;
  for (const bool exception_seq : {false, true}) {
    for (int n = 2; n <= 4; ++n) {
      for (int star = -1; star < n; ++star) {
        for (int neg = -1; neg < n - 1; ++neg) {
          // Only interior positions may be negated, never the star.
          if (neg == 0 || (neg >= 0 && neg == star)) continue;
          for (int window = 0; window < 4; ++window) {
            for (const std::string& mode : modes) {
              for (const bool chain : {false, true}) {
                GridStatement g;
                g.exception_seq = exception_seq;
                std::string from;
                std::string args;
                std::vector<size_t> arg_offsets;
                std::vector<int> plain;
                for (int i = 0; i < n; ++i) {
                  const std::string alias = "R" + std::to_string(i + 1);
                  if (i > 0) {
                    from += ", ";
                    args += ", ";
                  }
                  from += alias;
                  arg_offsets.push_back(args.size());
                  args += (i == neg ? "!" : "") + alias;
                  if (i == star) args += "*";
                  if (i != star && i != neg) plain.push_back(i);
                }
                const std::string last = "R" + std::to_string(n);
                const std::string windows[] = {
                    "", " OVER [3 SECONDS PRECEDING " + last + "]",
                    " OVER [3 SECONDS PRECEDING R1]",
                    " OVER [3 SECONDS FOLLOWING R1]"};
                std::string links;
                if (chain) {
                  for (size_t k = 0; k + 1 < plain.size(); ++k) {
                    links += " AND R" + std::to_string(plain[k] + 1) +
                             ".tagid = R" + std::to_string(plain[k + 1] + 1) +
                             ".tagid";
                  }
                }
                const std::string head =
                    "SELECT R" + std::to_string(plain.back() + 1) +
                    ".tagid FROM " + from + " WHERE ";
                const std::string kind =
                    exception_seq ? "EXCEPTION_SEQ(" : "SEQ(";
                g.sql = head + kind + args + ")" + windows[window] + mode +
                        links + ";";
                if (!seen.insert(g.sql).second) continue;  // empty chain
                g.seq_offset = head.size();
                for (const size_t a : arg_offsets) {
                  g.arg_offsets.push_back(head.size() + kind.size() + a);
                }
                g.retains_everything =
                    !exception_seq && window != 1 &&
                    (mode.empty() ||
                     (mode == " MODE RECENT" && !links.empty()));
                grid.push_back(std::move(g));
              }
            }
          }
        }
      }
    }
  }
  return grid;
}

const OperatorCost* SeqRow(const QueryCostReport& report) {
  for (const OperatorCost& row : report.operators) {
    if (row.op == "SeqOperator" || row.op == "ExceptionSeqOperator") {
      return &row;
    }
  }
  return nullptr;
}

/// The open star groups EXPLAIN COST prints for the operator, by alias:
/// "unbounded +r(R2)/s [open star group]" names R2.
std::set<std::string> OpenStarGroups(const StateBound& bound) {
  const std::string suffix = ")/s [open star group]";
  std::set<std::string> aliases;
  for (size_t end = bound.formula.find(suffix); end != std::string::npos;
       end = bound.formula.find(suffix, end + 1)) {
    const size_t begin = bound.formula.rfind("r(", end) + 2;
    aliases.insert(bound.formula.substr(begin, end - begin));
  }
  return aliases;
}

TEST(LintCostAgreementTest, UnboundedRetentionFiresExactlyWhenTheBoundDoes) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript("CREATE STREAM R1(readerid, tagid, tagtime);"
                                 "CREATE STREAM R2(readerid, tagid, tagtime);"
                                 "CREATE STREAM R3(readerid, tagid, tagtime);"
                                 "CREATE STREAM R4(readerid, tagid, tagtime);")
                  .ok());
  const std::vector<GridStatement> grid = Grid();
  ASSERT_EQ(grid.size(), 1344u);

  size_t planned = 0;
  size_t unbounded[2] = {0, 0};  // by operator: SEQ, EXCEPTION_SEQ
  size_t bounded[2] = {0, 0};
  size_t errors = 0;
  size_t warnings = 0;
  for (const GridStatement& g : grid) {
    SCOPED_TRACE(g.sql);
    const Result<std::vector<Diagnostic>> diags = engine.Lint(g.sql);
    ASSERT_TRUE(diags.ok()) << diags.status();
    bool plans = true;
    for (const Diagnostic& d : *diags) {
      if (d.rule == "plan-error") plans = false;
    }
    if (!plans) continue;
    ++planned;

    const Result<std::vector<QueryCostReport>> cost =
        engine.AnalyzeCost(g.sql);
    ASSERT_TRUE(cost.ok()) << cost.status();
    ASSERT_EQ(cost->size(), 1u);
    const OperatorCost* row = SeqRow(cost->front());
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->op,
              g.exception_seq ? "ExceptionSeqOperator" : "SeqOperator");
    ++(row->state.bounded ? bounded : unbounded)[g.exception_seq ? 1 : 0];

    const std::set<std::string> open_groups = OpenStarGroups(row->state);
    size_t at_seq = 0;
    size_t at_stars = 0;
    Severity worst = Severity::kInfo;
    for (const Diagnostic& d : *diags) {
      if (d.rule != "unbounded-retention") continue;
      if (d.severity > worst) worst = d.severity;
      if (d.span.offset == g.seq_offset) {
        ++at_seq;
        continue;
      }
      // Any other finding sits on an argument the bound calls an open
      // star group.
      size_t position = g.arg_offsets.size();
      for (size_t p = 0; p < g.arg_offsets.size(); ++p) {
        if (g.arg_offsets[p] == d.span.offset) position = p;
      }
      ASSERT_LT(position, g.arg_offsets.size()) << d.ToString();
      EXPECT_EQ(open_groups.count("R" + std::to_string(position + 1)), 1u)
          << d.ToString() << "\nformula: " << row->state.formula;
      ++at_stars;
    }
    EXPECT_EQ(at_seq, row->state.bounded ? 0u : 1u)
        << "formula: " << row->state.formula;
    EXPECT_EQ(at_stars, open_groups.size())
        << "formula: " << row->state.formula;
    if (g.retains_everything) {
      EXPECT_EQ(worst, Severity::kError);
    }
    if (worst == Severity::kError) ++errors;
    if (worst == Severity::kWarning) ++warnings;
  }
  // Not vacuous: both operators plan, both verdicts and both severities
  // occur.
  EXPECT_GE(planned, 700u);
  EXPECT_GT(unbounded[0], 0u);
  EXPECT_GT(bounded[0], 0u);
  EXPECT_GT(unbounded[1], 0u);
  EXPECT_GT(bounded[1], 0u);
  EXPECT_GT(errors, 0u);
  EXPECT_GT(warnings, 0u);
}

TEST(LintCostAgreementTest, ShardFallbackFiresExactlyWhenTheVerdictDoes) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript("CREATE STREAM R1(readerid, tagid, tagtime);"
                                 "CREATE STREAM R2(readerid, tagid, tagtime);"
                                 "CREATE STREAM R3(readerid, tagid, tagtime);"
                                 "CREATE STREAM R4(readerid, tagid, tagtime);")
                  .ok());
  std::vector<std::string> statements;
  for (const GridStatement& g : Grid()) statements.push_back(g.sql);
  for (const char* key : {"tagid", "readerid"}) {
    const std::string k = key;
    statements.push_back(
        "SELECT * FROM R1 AS a WHERE NOT EXISTS (SELECT * FROM R2 AS b OVER "
        "[1 SECONDS PRECEDING a] WHERE b." +
        k + " = a." + k + ");");
    statements.push_back(
        "SELECT * FROM R1 AS a WHERE a.readerid = 'r1' AND NOT EXISTS "
        "(SELECT * FROM R1 AS b OVER [1 SECONDS PRECEDING AND FOLLOWING a] "
        "WHERE b." +
        k + " = a." + k + ");");
    statements.push_back("SELECT a.tagid FROM R1 AS a, R2 AS b WHERE a." + k +
                         " = b." + k + ";");
  }

  size_t verdicts[2] = {0, 0};  // by verdict: other, single-shard
  for (const std::string& sql : statements) {
    SCOPED_TRACE(sql);
    const Result<std::vector<Diagnostic>> diags = engine.Lint(sql);
    ASSERT_TRUE(diags.ok()) << diags.status();
    bool plans = true;
    size_t findings = 0;
    for (const Diagnostic& d : *diags) {
      if (d.rule == "plan-error") plans = false;
      if (d.rule == "shard-fallback") ++findings;
    }
    if (!plans) continue;
    const Result<std::vector<QueryCostReport>> cost = engine.AnalyzeCost(sql);
    ASSERT_TRUE(cost.ok()) << cost.status();
    ASSERT_EQ(cost->size(), 1u);
    const bool single_shard = cost->front().partitioning == "single-shard";
    EXPECT_EQ(findings > 0, single_shard) << cost->front().partitioning;
    ++verdicts[single_shard ? 1 : 0];
  }
  // Not vacuous: both outcomes occur.
  EXPECT_GT(verdicts[0], 0u);
  EXPECT_GT(verdicts[1], 0u);
}

}  // namespace
}  // namespace eslev
