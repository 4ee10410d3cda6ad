// Keyed-vs-scan differential sweep for the windowed NOT EXISTS (DESIGN.md
// §5): on seeded random traces over two typed streams, every query must
// emit exactly what the same query emits with its sub-query WHERE
// wrapped as `(...) OR 1 = 0`. The wrapper hides every key pair from the
// planner's key split, so the reference walks one bucket holding the
// whole window and runs the whole predicate through the interpreter.
//
// The keys mix INT with DOUBLE columns (with NULLs, NaNs and -0.0) and
// VARCHAR columns (with NULLs); predicates are key-only, key plus
// residual, a computed key, and a key beside an OR. Windows are RANGE and
// ROWS PRECEDING plus the FOLLOWING forms; queries are same-stream and
// two-stream. Every keyed run checkpoints and restores mid-trace, on one
// Engine and on ShardedEngine at 1, 2 and 4 shards.

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "tests/property/differential_harness.h"

namespace eslev {
namespace {

constexpr const char* kDdl = R"sql(
  CREATE STREAM a(tag, k1 INT, k2, v DOUBLE);
  CREATE STREAM b(tag, k1 DOUBLE, k2, v DOUBLE);
)sql";

// Small key domains so probes find matches often; about 10 % NULLs, and
// NaN or -0.0 in a few DOUBLE values.
Trace MakeKeyTrace(uint32_t seed, size_t num_events) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int> small(0, 3);
  std::uniform_int_distribution<Duration> step(Milliseconds(20),
                                               Milliseconds(400));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Trace events;
  Timestamp now = Seconds(1);
  for (size_t i = 0; i < num_events; ++i) {
    Event e;
    e.stream = pct(rng) < 50 ? "a" : "b";
    e.ts = now;
    const int k = small(rng);
    Value k1 = Value::Int(k);
    if (e.stream == "b") {
      const int r = pct(rng);
      k1 = r < 5 ? Value::Double(nan)
                 : r < 10 ? Value::Double(-0.0) : Value::Double(k);
    }
    if (pct(rng) < 10) k1 = Value::Null();
    Value k2 = pct(rng) < 10
                   ? Value::Null()
                   : Value::String(std::string(1, "xyz"[small(rng) % 3]));
    Value v = Value::Double(small(rng) * 2.5);
    const int r = pct(rng);
    if (r < 10) v = Value::Null();
    if (r >= 95) v = Value::Double(nan);
    e.values = {Value::String("t" + std::to_string(small(rng))),
                std::move(k1), std::move(k2), std::move(v)};
    events.push_back(std::move(e));
    now += step(rng);
  }
  return events;
}

struct Query {
  std::string outer;   // outer stream
  std::string inner;   // sub-query stream
  std::string window;  // OVER [...] body
  std::string where;   // sub-query WHERE over aliases i (inner), o (outer)
  bool partitionable;  // shards by tag without a single-shard fallback
};

std::string Sql(const Query& q, bool hide_keys) {
  const std::string where =
      hide_keys ? "(" + q.where + ") OR 1 = 0" : q.where;
  return "SELECT * FROM " + q.outer + " AS o WHERE NOT EXISTS (SELECT * FROM " +
         q.inner + " AS i OVER [" + q.window + "] WHERE " + where + ")";
}

// The query as a scenario. Queries that do not link the tag, and ROWS
// windows (which count per shard), route both streams to one shard.
Scenario KeyScenario(const Query& q, bool hide_keys) {
  Scenario s;
  s.ddl = kDdl;
  s.query = Sql(q, hide_keys);
  s.streams = {"a", "b"};
  if (!q.partitionable) s.single_shard_streams = s.streams;
  s.tail_advance = Minutes(1);
  return s;
}

// Predicate forms over inner alias i and outer alias o.
const char* const kWheres[] = {
    "i.k1 = o.k1",                                // key only
    "i.k2 = o.k2 AND i.v < 5",                    // key plus residual
    "i.k1 = o.k1 + 1",                            // computed key
    "i.k1 = o.k1 AND (i.v < 5 OR i.k2 = o.k2)",   // key beside an OR
    "o.k2 = i.k2 AND i.k1 = o.k1",                // two keys, flipped
};

const char* const kWindows[] = {
    "1 SECONDS PRECEDING",
    "ROWS 6 PRECEDING",
    "1 SECONDS FOLLOWING",
    "1 SECONDS PRECEDING AND FOLLOWING",
};

// Same-stream queries run on b (DOUBLE keys with NaN and -0.0);
// two-stream queries probe b from a and a from b.
const std::pair<const char*, const char*> kStreams[] = {
    {"b", "b"}, {"a", "b"}, {"b", "a"}};

class NotExistsKeyDifferentialTest
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(NotExistsKeyDifferentialTest, KeyedMatchesScan) {
  const uint32_t seed = GetParam();
  std::mt19937 rng(seed * 7919u + 11u);
  const Trace events = MakeKeyTrace(seed, 160);
  // Streams, window and tag link are drawn per seed; every predicate
  // form runs on them.
  const auto& streams =
      kStreams[std::uniform_int_distribution<size_t>(0, 2)(rng)];
  const std::string window =
      kWindows[std::uniform_int_distribution<size_t>(0, 3)(rng)];
  const bool link_tag = std::uniform_int_distribution<int>(0, 1)(rng) == 1;
  for (const char* where : kWheres) {
    Query q{streams.first, streams.second, window,
            link_tag ? std::string("i.tag = o.tag AND ") + where : where,
            link_tag && window.rfind("ROWS", 0) != 0};
    // The keyed query, checkpointed at `cut` and restored into a fresh
    // host that finishes the trace.
    KillPlan plan;
    plan.checkpoint_at = plan.kill_at =
        std::uniform_int_distribution<size_t>(1, events.size() - 1)(rng);
    plan.wal = false;
    SCOPED_TRACE(Sql(q, false) + " | cut " +
                 std::to_string(plan.checkpoint_at));
    {
      Engine explain;
      ASSERT_TRUE(explain.ExecuteScript(kDdl).ok());
      auto keyed = explain.Explain(Sql(q, /*hide_keys=*/false));
      auto hidden = explain.Explain(Sql(q, /*hide_keys=*/true));
      ASSERT_TRUE(keyed.ok() && hidden.ok());
      EXPECT_NE(keyed->find("keyed on"), std::string::npos) << *keyed;
      EXPECT_EQ(hidden->find("keyed on"), std::string::npos) << *hidden;
    }
    // The reference: the key-hidden query on one Engine, uninterrupted.
    const Rows reference =
        RunEngine(KeyScenario(q, /*hide_keys=*/true), events);
    const Scenario keyed = KeyScenario(q, /*hide_keys=*/false);
    const std::string dir = "not_exists_key_" + std::to_string(seed);
    EXPECT_EQ(RunKilled<Engine>(keyed, events, EngineOptions{}, EngineOptions{},
                                plan, FreshDir(dir + "/engine")),
              reference);
    const Rows sorted_reference = Sorted(reference);
    for (size_t shards : {1, 2, 4}) {
      SCOPED_TRACE("shards " + std::to_string(shards));
      const std::string sharded_dir =
          FreshDir(dir + "/sharded" + std::to_string(shards));
      EXPECT_EQ(Sorted(RunKilled<ShardedEngine>(keyed, events,
                                                ShardOptions(shards),
                                                ShardOptions(shards), plan,
                                                sharded_dir)),
                sorted_reference);
    }
    std::filesystem::remove_all(::testing::TempDir() + dir);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NotExistsKeyDifferentialTest,
                         ::testing::Range(1u, 41u));

}  // namespace
}  // namespace eslev
