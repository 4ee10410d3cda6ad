// SEQ oracle differential sweep (DESIGN.md §7): on seeded random traces
// and randomized query shapes, the history matcher must emit what the
// brute-force oracle written from the paper (src/oracle/seq_oracle.h)
// emits — the same rows in the same order on one engine, and the same
// rows after sorting on 1/2/4 shards at route batch sizes drawn from
// 1/7/64 — across all four pairing modes, windowed SEQ, stars, negation
// (before the trigger and before a stored position), and EXCEPTION_SEQ
// deadlines with heartbeat-driven active expiration.
// Each query's configuration comes from planning it, the way the cost
// analyzer reads it. The oracle is unkeyed, so it is also the reference
// for the matcher's keyed SEQ matching (DESIGN.md §5): the randomized
// queries draw chained, all-against-the-first and partial tag-equality
// shapes, a second readerid class, and INT/DOUBLE/NULL tags, and a fixed
// scenario keys a DOUBLE tag against an INT one; a second sweep compares
// each keyed query with its `(... OR 1 = 0)` form across a checkpoint
// and restore. Every seeded run draws the ingest reorder stage's
// lateness bound from {0, 400 ms}, which must not change a byte.

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "cep/exception_seq_operator.h"
#include "cep/seq_operator.h"
#include "common/string_util.h"
#include "oracle/seq_oracle.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "tests/property/differential_harness.h"

namespace eslev {
namespace {

// The oracle's rows for the trace. The query is planned over a catalog
// holding the scenario's streams, and the oracle reads the planned
// operator's configuration; each source tuple is built as Engine::Push
// builds it and fed on every port its stream subscribes.
Rows RunOracle(const Scenario& scenario, const Trace& events) {
  Engine catalog;
  EXPECT_TRUE(catalog.ExecuteScript(scenario.ddl).ok());
  auto stmt = ParseStatement(scenario.query);
  EXPECT_TRUE(stmt.ok()) << stmt.status();
  if (!stmt.ok()) return {};
  auto plan = Planner(&catalog).Plan(**stmt);
  EXPECT_TRUE(plan.ok()) << plan.status() << "\n" << scenario.query;
  if (!plan.ok()) return {};
  std::vector<SeqInput> inputs;
  for (const Event& e : events) {
    if (e.stream.empty()) {
      inputs.push_back(SeqInput::Heartbeat(e.ts));
      continue;
    }
    for (const PlannedQuery::Subscription& sub : plan->subscriptions) {
      if (AsciiToLower(sub.stream->name()) != AsciiToLower(e.stream)) continue;
      auto tuple = MakeTuple(sub.stream->schema(), e.values, e.ts);
      EXPECT_TRUE(tuple.ok()) << tuple.status();
      inputs.push_back(SeqInput::Arrival(sub.port, *tuple));
    }
  }
  inputs.push_back(
      SeqInput::Heartbeat(LastTs(events) + scenario.tail_advance));
  Result<std::vector<Tuple>> out = Status::Invalid("no sequence operator");
  for (const auto& op : plan->operators) {
    if (const auto* seq = dynamic_cast<const SeqOperator*>(op.get())) {
      out = RunSeqOracle(seq->config(), inputs);
    } else if (const auto* ex =
                   dynamic_cast<const ExceptionSeqOperator*>(op.get())) {
      out = RunExceptionSeqOracle(ex->config(), inputs);
    }
  }
  EXPECT_TRUE(out.ok()) << out.status() << "\n" << scenario.query;
  Rows rows;
  if (!out.ok()) return rows;
  for (const Tuple& t : *out) rows.push_back(t.ToString());
  return rows;
}

// The full matrix for one scenario: the history matcher against the
// oracle on one engine (exact order) and on 1/2/4 shards at a drawn
// route batch size (sorted — shard interleaving is nondeterministic).
// Numeric tags run on one engine only, because ShardedEngine routes by
// the structural Value::Hash (an INT 5 and a DOUBLE 5.0 land on
// different shards).
void ExpectMatchesOracle(const Scenario& scenario, uint32_t seed,
                         size_t num_events, int num_tags,
                         const TraceOptions& trace = {}) {
  const Trace events =
      MakeTrace(seed, num_events, scenario.streams, num_tags, trace);
  const Duration lateness_bound = LatenessBoundFor(seed);
  const Rows reference = RunOracle(scenario, events);
  EXPECT_EQ(RunEngine(scenario, events, IngestOptionsWith(lateness_bound)),
            reference)
      << "seed " << seed << " lateness_bound " << lateness_bound << "\n"
      << scenario.query;
  if (trace.numeric_tags) return;
  const Rows sorted_reference = Sorted(reference);
  std::mt19937 rng(seed * 2246822519u + 3);
  for (size_t shards : {1u, 2u, 4u}) {
    const size_t route_batch_size = DrawRouteBatchSize(rng);
    EXPECT_EQ(Sorted(RunSharded(
                  scenario, events,
                  ShardOptions(shards, route_batch_size,
                               IngestOptionsWith(lateness_bound)))),
              sorted_reference)
        << "seed " << seed << " shards " << shards << " route_batch_size "
        << route_batch_size << " lateness_bound " << lateness_bound << "\n"
        << scenario.query;
  }
}

Scenario TrailingStarScenario(const std::string& mode_clause) {
  Scenario s;
  s.ddl = R"sql(
    CREATE STREAM R1(readerid, tagid, tagtime);
    CREATE STREAM R2(readerid, tagid, tagtime);
  )sql";
  s.query = "SELECT R1.tagid, FIRST(R2*).tagtime, COUNT(R2*) "
            "FROM R1, R2 WHERE SEQ(R1, R2*)" +
            mode_clause +
            " AND R2.tagtime - R2.previous.tagtime <= 1 SECONDS";
  s.streams = {"R1", "R2"};
  s.single_shard_streams = s.streams;
  return s;
}

Scenario NegationScenario(const std::string& mode_clause) {
  Scenario s;
  s.ddl = R"sql(
    CREATE STREAM A(readerid, tagid, tagtime);
    CREATE STREAM B(readerid, tagid, tagtime);
    CREATE STREAM C(readerid, tagid, tagtime);
  )sql";
  s.query = "SELECT A.tagid, A.tagtime, C.tagtime FROM A, B, C "
            "WHERE SEQ(A, !B, C)" +
            mode_clause + " AND A.tagid=C.tagid";
  s.streams = {"A", "B", "C"};
  // Negation evidence lives on the joint history: order across streams
  // matters, so the sharded runs keep these streams on one shard.
  s.single_shard_streams = s.streams;
  return s;
}

// A negation before a stored position, with no pairwise condition: the
// negation's later neighbour C is stored, so RECENT may not purge what
// its search can still fall back to, and CHRONICLE checks !B against C
// rather than the trigger.
Scenario NegationBeforeStoredScenario(const std::string& mode_clause) {
  Scenario s;
  s.ddl = R"sql(
    CREATE STREAM A(readerid, tagid, tagtime);
    CREATE STREAM B(readerid, tagid, tagtime);
    CREATE STREAM C(readerid, tagid, tagtime);
    CREATE STREAM D(readerid, tagid, tagtime);
  )sql";
  s.query = "SELECT A.tagtime, C.tagtime, D.tagtime FROM A, B, C, D "
            "WHERE SEQ(A, !B, C, D)" +
            mode_clause;
  s.streams = {"A", "B", "C", "D"};
  s.single_shard_streams = s.streams;
  return s;
}

Scenario ExceptionScenario(const std::string& window_clause) {
  Scenario s;
  s.ddl = R"sql(
    CREATE STREAM A1(staffid, tagid, tagtime);
    CREATE STREAM A2(staffid, tagid, tagtime);
    CREATE STREAM A3(staffid, tagid, tagtime);
  )sql";
  s.query = "SELECT A1.tagid, A2.tagid, A3.tagid FROM A1, A2, A3 "
            "WHERE EXCEPTION_SEQ(A1, A2, A3)" +
            window_clause;
  s.streams = {"A1", "A2", "A3"};
  // One partial sequence across all input streams: order-dependent.
  s.single_shard_streams = s.streams;
  return s;
}

// SEQ(A, B) keyed on a DOUBLE tag against an INT one. SQL equality
// makes an INT 5 equal a DOUBLE 5.0, so keyed matching must put both in
// one key class (Value::KeyHash, DESIGN.md §5); the structural
// Value::Hash tells them apart and would drop every such match.
Scenario MixedTypeKeyScenario(const std::string& mode_clause) {
  Scenario s;
  s.ddl = R"sql(
    CREATE STREAM A(readerid, tagid DOUBLE, tagtime);
    CREATE STREAM B(readerid, tagid INT, tagtime);
  )sql";
  s.query = "SELECT A.tagid, B.tagid FROM A, B WHERE SEQ(A, B)" +
            mode_clause + " AND A.tagid = B.tagid";
  s.streams = {"A", "B"};
  return s;
}

class SeqOracleDifferentialTest
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SeqOracleDifferentialTest, AllPairingModes) {
  const uint32_t seed = GetParam();
  int i = 0;
  for (const char* mode :
       {"", " MODE RECENT", " MODE CHRONICLE", " MODE CONSECUTIVE"}) {
    ExpectMatchesOracle(SeqScenario(mode),
                        seed * 31u + static_cast<uint32_t>(i++), 240, 5);
  }
}

TEST_P(SeqOracleDifferentialTest, PairingModesWithoutConstraints) {
  // No pairwise constraints: every order-compatible combination is a
  // candidate, and RECENT's exact purge is active — the worst case for
  // matching the history enumeration order.
  const uint32_t seed = GetParam();
  int i = 0;
  for (const char* mode : {"", " MODE RECENT", " MODE CHRONICLE"}) {
    ExpectMatchesOracle(SeqScenario(mode, "", /*with_pairwise=*/false),
                        seed * 97u + static_cast<uint32_t>(i++), 120, 4);
  }
}

TEST_P(SeqOracleDifferentialTest, WindowedSeq) {
  const uint32_t seed = GetParam();
  int i = 0;
  for (const char* window :
       {" OVER [30 SECONDS PRECEDING C3]", " OVER [20 SECONDS FOLLOWING C1]",
        " OVER [15 SECONDS PRECEDING AND FOLLOWING C2]"}) {
    for (const char* mode : {"", " MODE RECENT", " MODE CHRONICLE"}) {
      ExpectMatchesOracle(SeqScenario(mode, window),
                          seed * 131u + static_cast<uint32_t>(i++), 200, 5);
    }
  }
}

TEST_P(SeqOracleDifferentialTest, TrailingStarGroups) {
  const uint32_t seed = GetParam();
  int i = 0;
  for (const char* mode : {"", " MODE RECENT", " MODE CHRONICLE"}) {
    ExpectMatchesOracle(TrailingStarScenario(mode),
                        seed * 173u + static_cast<uint32_t>(i++), 160, 4);
    ExpectMatchesOracle(StarScenario(mode),
                        seed * 181u + static_cast<uint32_t>(i++), 160, 4);
  }
}

TEST_P(SeqOracleDifferentialTest, NegatedPositions) {
  const uint32_t seed = GetParam();
  int i = 0;
  for (const char* mode : {"", " MODE RECENT", " MODE CHRONICLE"}) {
    ExpectMatchesOracle(NegationScenario(mode),
                        seed * 193u + static_cast<uint32_t>(i++), 200, 4);
  }
  for (const char* mode : {"", " MODE RECENT", " MODE CHRONICLE"}) {
    ExpectMatchesOracle(NegationBeforeStoredScenario(mode),
                        seed * 193u + static_cast<uint32_t>(i++), 120, 4);
  }
}

TEST_P(SeqOracleDifferentialTest, ExceptionSeqDeadlines) {
  const uint32_t seed = GetParam();
  int i = 0;
  for (const char* window :
       {"", " OVER [10 SECONDS FOLLOWING A1]",
        " OVER [4 SECONDS FOLLOWING A2]"}) {
    // Heartbeats interleaved: active expiration must fire as in the oracle.
    ExpectMatchesOracle(ExceptionScenario(window),
                        seed * 211u + static_cast<uint32_t>(i++), 220, 4,
                        {.heartbeats = true});
  }
}

TEST_P(SeqOracleDifferentialTest, MixedTypeKeys) {
  const uint32_t seed = GetParam();
  int i = 0;
  for (const char* mode :
       {"", " MODE RECENT", " MODE CHRONICLE", " MODE CONSECUTIVE"}) {
    const Scenario scenario = MixedTypeKeyScenario(mode);
    // A(5) then B(5): the INT tag read into A's DOUBLE column matches.
    const Trace pair = {
        {"A", {Value::String("r"), Value::Int(5), Value::Time(Seconds(1))},
         Seconds(1)},
        {"B", {Value::String("r"), Value::Int(5), Value::Time(Seconds(2))},
         Seconds(2)}};
    const Rows expected = {"(5.000000, 5)@" + FormatTimestamp(Seconds(2))};
    EXPECT_EQ(RunOracle(scenario, pair), expected) << scenario.query;
    EXPECT_EQ(RunEngine(scenario, pair), expected) << scenario.query;
    // Numeric traces: every tag is an INT (or NULL) widened to DOUBLE on
    // A, so each match pairs an INT with an equal-valued DOUBLE.
    ExpectMatchesOracle(scenario, seed * 223u + static_cast<uint32_t>(i++),
                        160, 4, {.numeric_tags = true});
  }
}

// ---- randomized query generator ----------------------------------------

// Draw weights (percent) of one pairing mode. RECENT purges only when
// candidates qualify by time order alone (RecentPurgeApplies): no
// pairwise condition and no negation before a stored position. So
// RECENT is drawn most often, with pairwise links rarely and negations
// often, over more positions: its random rounds land on both sides of
// that rule.
struct ModeDraws {
  const char* clause;
  int weight;          // share of the rounds
  int four_positions;  // else two (30 %) or three positions
  int star;
  int negation;  // interior; needs three positions
  int tag_links;
  int reader_link;
};

constexpr ModeDraws kModeDraws[] = {
    {"", 20, 35, 35, 30, 60, 25},
    {" MODE RECENT", 40, 60, 15, 60, 15, 5},
    {" MODE CHRONICLE", 20, 35, 35, 30, 60, 25},
    // CONSECUTIVE + negation never completes (any negated arrival ends
    // the run); keep the generated queries satisfiable.
    {" MODE CONSECUTIVE", 20, 35, 35, 0, 60, 25},
};

// A drawn query: its scenario, the shape of the trace it reads, the
// query with every key conjunct wrapped as `(... OR 1 = 0)`, which
// keyed matching cannot see through, and whether the query itself
// should be keyed.
struct RandomQuery {
  Scenario scenario;
  TraceOptions trace;
  std::string unkeyed_query;
  bool expect_keyed = false;
};

// Random SEQ query from parametric templates: the rng picks the mode,
// then with that mode's weights the position count (2-4), star
// placement, negation, window shape/length/anchor, and pairwise
// constraints. Everything composes from grammar the planner accepts, so
// a planning failure is itself a test failure.
RandomQuery RandomScenario(std::mt19937& rng) {
  std::uniform_int_distribution<int> pct(0, 99);
  const ModeDraws* draws = kModeDraws;
  for (int mode_draw = pct(rng); mode_draw >= draws->weight; ++draws) {
    mode_draw -= draws->weight;
  }
  const std::string mode = draws->clause;
  const int size_draw = pct(rng);
  const int npos =
      size_draw < 30 ? 2 : (size_draw < 100 - draws->four_positions ? 3 : 4);
  // Numeric tags: each stream's tagid is INT or DOUBLE, so keys compare
  // an INT with an equal-valued DOUBLE across streams.
  const bool numeric_tags = pct(rng) < 30;
  std::vector<std::string> streams;
  std::string ddl;
  for (int i = 0; i < npos; ++i) {
    streams.push_back("S" + std::to_string(i + 1));
    const char* tag_type =
        !numeric_tags ? "" : (pct(rng) < 50 ? " INT" : " DOUBLE");
    ddl += "CREATE STREAM " + streams.back() + "(readerid, tagid" + tag_type +
           ", tagtime);\n";
  }
  // At most one feature position keeps the space of valid templates
  // simple: a star (any position) or a negation (any interior position,
  // so with four positions it may fall before a stored one).
  int star_at = -1;
  int neg_at = -1;
  const int feature = pct(rng);
  if (feature < draws->star) {
    star_at = std::uniform_int_distribution<int>(0, npos - 1)(rng);
  } else if (feature < draws->star + draws->negation && npos >= 3) {
    neg_at = std::uniform_int_distribution<int>(1, npos - 2)(rng);
  }

  std::string args;
  for (int i = 0; i < npos; ++i) {
    if (!args.empty()) args += ", ";
    if (i == neg_at) args += "!";
    args += streams[i];
    if (i == star_at) args += "*";
  }
  std::string query_where = "SEQ(" + args + ")";
  if (pct(rng) < 50) {
    const int len = 5 + pct(rng) / 4;
    // Anchor on any non-negated position (negated positions carry no
    // match entry, which would make the window vacuous).
    int anchor = std::uniform_int_distribution<int>(0, npos - 1)(rng);
    if (anchor == neg_at) anchor = 0;
    const char* dir = anchor == 0             ? "FOLLOWING"
                      : anchor == npos - 1    ? "PRECEDING"
                      : (pct(rng) < 50 ? "PRECEDING" : "FOLLOWING");
    query_where += " OVER [" + std::to_string(len) + " SECONDS " + dir +
                   " " + streams[anchor] + "]";
  }
  query_where += mode;
  if (star_at >= 0 && pct(rng) < 70) {
    query_where += " AND " + streams[star_at] + ".tagtime - " +
                   streams[star_at] + ".previous.tagtime <= 1 SECONDS";
  }
  // Pairwise tagid joins over the non-negated positions, in one of three
  // shapes: every position against the first, chained, or partial (one
  // position left unlinked). A full chain doubles as the shard routing
  // key; anything less leaves the scenario order-dependent across
  // shards. A readerid equality may add a second class, which keyed
  // matching leaves to the interpreter.
  std::vector<int> plain;
  for (int i = 0; i < npos; ++i) {
    if (i != neg_at) plain.push_back(i);
  }
  std::vector<std::pair<int, int>> tag_links;  // (earlier, later)
  bool full_chain = false;
  if (plain.size() >= 2 && pct(rng) < draws->tag_links) {
    const int shape = pct(rng) % 3;
    if (shape == 2 && plain.size() >= 3) {
      const size_t unlinked = std::uniform_int_distribution<size_t>(
          0, plain.size() - 1)(rng);
      plain.erase(plain.begin() + static_cast<std::ptrdiff_t>(unlinked));
    } else {
      full_chain = true;
    }
    for (size_t i = 1; i < plain.size(); ++i) {
      tag_links.push_back({plain[shape == 0 ? 0 : i - 1], plain[i]});
    }
  }
  std::vector<std::string> keys;  // key conjuncts, as written
  for (const auto& [a, b] : tag_links) {
    keys.push_back(streams[a] + ".tagid=" + streams[b] + ".tagid");
  }
  int num_readers = 1;
  std::vector<std::pair<int, int>> links = tag_links;
  if (pct(rng) < draws->reader_link) {
    int a = std::uniform_int_distribution<int>(0, npos - 2)(rng);
    if (a == neg_at) a = 0;
    const int b = a + 1 == neg_at ? a + 2 : a + 1;
    keys.push_back(streams[a] + ".readerid=" + streams[b] + ".readerid");
    links.push_back({a, b});
    num_readers = 2;
  }
  std::string unkeyed_where = query_where;
  for (const std::string& key : keys) {
    query_where += " AND " + key;
    unkeyed_where += " AND (" + key + " OR 1 = 0)";
  }

  std::string projection;
  for (int i = 0; i < npos; ++i) {
    if (i == neg_at) continue;
    if (!projection.empty()) projection += ", ";
    if (i == star_at) {
      projection += "FIRST(" + streams[i] + "*).tagtime, COUNT(" +
                    streams[i] + "*)";
    } else {
      projection += streams[i] + ".tagid, " + streams[i] + ".tagtime";
    }
  }

  RandomQuery r;
  Scenario& s = r.scenario;
  s.ddl = ddl;
  std::string from;
  for (const auto& st : streams) {
    if (!from.empty()) from += ", ";
    from += st;
  }
  s.query =
      "SELECT " + projection + " FROM " + from + " WHERE " + query_where;
  r.unkeyed_query =
      "SELECT " + projection + " FROM " + from + " WHERE " + unkeyed_where;
  r.trace.numeric_tags = numeric_tags;
  r.trace.num_readers = num_readers;
  // Keyed when a plain equality ties the trigger to a non-star position.
  const bool consecutive = mode.find("CONSECUTIVE") != std::string::npos;
  for (const auto& [a, b] : links) {
    if (b == npos - 1 && a != star_at && star_at != npos - 1 &&
        !consecutive) {
      r.expect_keyed = true;
    }
  }
  s.streams = streams;
  // Stars, negation, CONSECUTIVE, and queries without a routing key are
  // order-dependent across streams: keep them on a single shard.
  if (star_at >= 0 || neg_at >= 0 || !full_chain || consecutive) {
    s.single_shard_streams = streams;
  }
  return r;
}

TEST_P(SeqOracleDifferentialTest, RandomizedQueries) {
  const uint32_t seed = GetParam();
  std::mt19937 rng(seed * 747796405u + 2891336453u);
  for (int round = 0; round < 16; ++round) {
    const RandomQuery r = RandomScenario(rng);
    ExpectMatchesOracle(r.scenario,
                        seed * 1013u + static_cast<uint32_t>(round), 150, 4,
                        r.trace);
  }
}

// Keyed matching against the interpreter (DESIGN.md §5): the keyed
// query, checkpointed at `cut` and restored into a fresh engine, must
// emit exactly what its `(... OR 1 = 0)` form emits uninterrupted — same
// rows, same order.
void ExpectKeyedMatchesInterpreted(const RandomQuery& r, uint32_t seed,
                                   size_t num_events, int num_tags,
                                   size_t cut, const std::string& dir) {
  TraceOptions trace = r.trace;
  trace.heartbeats = true;
  const Trace events =
      MakeTrace(seed, num_events, r.scenario.streams, num_tags, trace);
  Scenario unkeyed = r.scenario;
  unkeyed.query = r.unkeyed_query;
  const EngineOptions engine = IngestOptionsWith(LatenessBoundFor(seed));
  const Rows reference = RunEngine(unkeyed, events, engine);
  {
    Engine explain;
    ASSERT_TRUE(explain.ExecuteScript(r.scenario.ddl).ok());
    auto keyed = explain.Explain(r.scenario.query);
    auto hidden = explain.Explain(r.unkeyed_query);
    ASSERT_TRUE(keyed.ok() && hidden.ok());
    EXPECT_EQ(keyed->find("keyed on") != std::string::npos, r.expect_keyed)
        << *keyed;
    EXPECT_EQ(hidden->find("keyed on"), std::string::npos) << *hidden;
  }
  KillPlan plan;
  plan.checkpoint_at = plan.kill_at = cut;
  plan.wal = false;
  EXPECT_EQ(RunKilled<Engine>(r.scenario, events, engine, engine, plan, dir),
            reference)
      << "seed " << seed << " cut " << cut << " lateness_bound "
      << engine.ingest.lateness_bound << "\n"
      << r.scenario.query;
}

TEST_P(SeqOracleDifferentialTest, KeyedMatchesInterpretedAcrossRestore) {
  const uint32_t seed = GetParam();
  std::mt19937 rng(seed * 2654435761u + 7);
  // About a third of the drawn queries are keyed; 32 rounds per seed
  // cover each pairing mode and key shape.
  for (int round = 0; round < 32; ++round) {
    const RandomQuery r = RandomScenario(rng);
    const size_t num_events = 150;
    const size_t cut =
        std::uniform_int_distribution<size_t>(1, num_events - 1)(rng);
    const std::string dir =
        FreshDir("seq_oracle_diff_keyed_s" + std::to_string(seed) + "_" +
                 std::to_string(round));
    ExpectKeyedMatchesInterpreted(
        r, seed * 7919u + static_cast<uint32_t>(round), num_events, 4, cut,
        dir);
    std::filesystem::remove_all(dir);
  }
}

// Every test's seed derivation runs at both lateness bounds
// (the loop index added to each shifts all three seeds alike).
static_assert(RunsBothBounds([](uint32_t s) { return s * 31u; }));
static_assert(RunsBothBounds([](uint32_t s) { return s * 97u; }));
static_assert(RunsBothBounds([](uint32_t s) { return s * 131u; }));
static_assert(RunsBothBounds([](uint32_t s) { return s * 173u; }));
static_assert(RunsBothBounds([](uint32_t s) { return s * 181u; }));
static_assert(RunsBothBounds([](uint32_t s) { return s * 193u; }));
static_assert(RunsBothBounds([](uint32_t s) { return s * 211u; }));
static_assert(RunsBothBounds([](uint32_t s) { return s * 223u; }));
static_assert(RunsBothBounds([](uint32_t s) { return s * 1013u; }));
static_assert(RunsBothBounds([](uint32_t s) { return s * 7919u; }));

INSTANTIATE_TEST_SUITE_P(Seeds, SeqOracleDifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace eslev
