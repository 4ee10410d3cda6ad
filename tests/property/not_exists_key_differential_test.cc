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

#include <algorithm>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/sharded_engine.h"

namespace eslev {
namespace {

constexpr const char* kDdl = R"sql(
  CREATE STREAM a(tag, k1 INT, k2, v DOUBLE);
  CREATE STREAM b(tag, k1 DOUBLE, k2, v DOUBLE);
)sql";

struct Event {
  std::string stream;
  std::vector<Value> values;
  Timestamp ts;
};

// Small key domains so probes find matches often; about 10 % NULLs, and
// NaN or -0.0 in a few DOUBLE values.
std::vector<Event> MakeTrace(uint32_t seed, size_t num_events) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int> small(0, 3);
  std::uniform_int_distribution<Duration> step(Milliseconds(20),
                                               Milliseconds(400));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Event> events;
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

template <typename Host>
void PushAll(Host& host, const std::vector<Event>& events, size_t from,
             size_t to) {
  for (size_t i = from; i < to; ++i) {
    const Event& e = events[i];
    ASSERT_TRUE(host.Push(e.stream, e.values, e.ts).ok());
  }
}

// The reference: the key-hidden query on one Engine, uninterrupted.
std::vector<std::string> RunReference(const Query& q,
                                      const std::vector<Event>& events) {
  Engine engine;
  EXPECT_TRUE(engine.ExecuteScript(kDdl).ok());
  auto reg = engine.RegisterQuery(Sql(q, /*hide_keys=*/true));
  EXPECT_TRUE(reg.ok()) << reg.status();
  std::vector<std::string> rows;
  EXPECT_TRUE(engine
                  .Subscribe(reg->output_stream,
                             [&](const Tuple& t) { rows.push_back(t.ToString()); })
                  .ok());
  PushAll(engine, events, 0, events.size());
  EXPECT_TRUE(engine.AdvanceTime(events.back().ts + Minutes(1)).ok());
  return rows;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "not_exists_key_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// The keyed query on one Engine, checkpointed at `cut` and restored into
// a fresh engine that finishes the trace.
std::vector<std::string> RunKeyedEngine(const Query& q,
                                        const std::vector<Event>& events,
                                        size_t cut, const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> rows;
  const auto build = [&](Engine& engine) {
    EXPECT_TRUE(engine.ExecuteScript(kDdl).ok());
    auto reg = engine.RegisterQuery(Sql(q, /*hide_keys=*/false));
    EXPECT_TRUE(reg.ok()) << reg.status();
    EXPECT_TRUE(
        engine
            .Subscribe(reg->output_stream,
                       [&](const Tuple& t) { rows.push_back(t.ToString()); })
            .ok());
  };
  {
    Engine first;
    build(first);
    PushAll(first, events, 0, cut);
    EXPECT_TRUE(first.Checkpoint(dir).ok());
  }
  Engine second;
  build(second);
  const Status restored = second.Restore(dir);
  EXPECT_TRUE(restored.ok()) << restored;
  PushAll(second, events, cut, events.size());
  EXPECT_TRUE(second.AdvanceTime(events.back().ts + Minutes(1)).ok());
  return rows;
}

// The keyed query on a ShardedEngine, checkpointed and restored likewise.
// Queries that do not link the tag, and ROWS windows (which count per
// shard), route both streams to one shard.
std::vector<std::string> RunKeyedSharded(const Query& q,
                                         const std::vector<Event>& events,
                                         size_t num_shards, size_t cut,
                                         const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> rows;
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  const auto build = [&](ShardedEngine& engine) {
    EXPECT_TRUE(engine.ExecuteScript(kDdl).ok());
    auto reg = engine.RegisterQuery(Sql(q, /*hide_keys=*/false));
    EXPECT_TRUE(reg.ok()) << reg.status();
    if (!q.partitionable) {
      EXPECT_TRUE(engine.SetSingleShard("a").ok());
      EXPECT_TRUE(engine.SetSingleShard("b").ok());
    }
    EXPECT_TRUE(
        engine
            .Subscribe(reg->output_stream,
                       [&](const Tuple& t) { rows.push_back(t.ToString()); })
            .ok());
  };
  {
    ShardedEngine first(options);
    build(first);
    PushAll(first, events, 0, cut);
    EXPECT_TRUE(first.Checkpoint(dir).ok());
    EXPECT_TRUE(first.Flush().ok());
    first.DrainOutputs();
  }
  ShardedEngine second(options);
  build(second);
  const Status restored = second.Restore(dir);
  EXPECT_TRUE(restored.ok()) << restored;
  PushAll(second, events, cut, events.size());
  EXPECT_TRUE(second.AdvanceTime(events.back().ts + Minutes(1)).ok());
  EXPECT_TRUE(second.Flush().ok());
  second.DrainOutputs();
  return rows;
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
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
  const auto events = MakeTrace(seed, 160);
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
    const size_t cut =
        std::uniform_int_distribution<size_t>(1, events.size() - 1)(rng);
    SCOPED_TRACE(Sql(q, false) + " | cut " + std::to_string(cut));
    {
      Engine explain;
      ASSERT_TRUE(explain.ExecuteScript(kDdl).ok());
      auto keyed = explain.Explain(Sql(q, /*hide_keys=*/false));
      auto hidden = explain.Explain(Sql(q, /*hide_keys=*/true));
      ASSERT_TRUE(keyed.ok() && hidden.ok());
      EXPECT_NE(keyed->find("keyed on"), std::string::npos) << *keyed;
      EXPECT_EQ(hidden->find("keyed on"), std::string::npos) << *hidden;
    }
    const auto reference = RunReference(q, events);
    const std::string dir = FreshDir(std::to_string(seed));
    EXPECT_EQ(RunKeyedEngine(q, events, cut, dir + "/engine"), reference);
    const auto sorted_reference = Sorted(reference);
    for (size_t shards : {1, 2, 4}) {
      SCOPED_TRACE("shards " + std::to_string(shards));
      EXPECT_EQ(Sorted(RunKeyedSharded(
                    q, events, shards, cut,
                    dir + "/sharded" + std::to_string(shards))),
                sorted_reference);
    }
    std::filesystem::remove_all(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NotExistsKeyDifferentialTest,
                         ::testing::Range(1u, 41u));

}  // namespace
}  // namespace eslev
