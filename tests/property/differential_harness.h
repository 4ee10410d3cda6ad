// The differential harness every property sweep under tests/property
// shares (DESIGN.md §7): one trace generator, one scenario catalogue and
// one runner per host kind. A sweep draws a seeded trace, runs a
// scenario's query on the hosts it compares and checks their rows
// against a reference: an Engine's in emission order, a ShardedEngine's
// in drain order, either sorted when the hosts may interleave.
//
// Each seeded run also sets the ingest reorder stage's lateness bound
// (EngineOptions::ingest, DESIGN.md §15) to 0 or 400 ms from its seed.
// The traces are in timestamp order, so a bound that covers them must
// not change a single output byte.

#ifndef ESLEV_TESTS_PROPERTY_DIFFERENTIAL_HARNESS_H_
#define ESLEV_TESTS_PROPERTY_DIFFERENTIAL_HARNESS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "common/time.h"
#include "core/engine.h"
#include "core/sharded_engine.h"
#include "recovery/checkpoint.h"
#include "replication/replicated_engine.h"

namespace eslev {

// ---- traces ----------------------------------------------------------------

/// One trace step: a read of `values` on `stream`, or a heartbeat
/// (AdvanceTime to `ts`) when `stream` is empty.
struct Event {
  std::string stream;
  std::vector<Value> values;
  Timestamp ts;
};
using Trace = std::vector<Event>;

/// The shape of a generated trace beyond its streams and tag pool.
struct TraceOptions {
  /// About 8 % of the steps are heartbeats, which drive active
  /// expiration.
  bool heartbeats = false;
  /// Tags are INT values (about 10 % NULL) instead of "tag<n>" strings.
  bool numeric_tags = false;
  /// More than one reader: readerid varies over "r0", "r1", ...
  int num_readers = 1;
  /// Draw each read's tag before its stream (the ingest sweep's order).
  bool tag_first = false;
};

/// A seeded random trace of (readerid, tagid, tagtime) reads over
/// `streams`: strictly increasing timestamps from 1 s on, 50 ms to 2 s
/// apart, and tags from a pool of `num_tags` so sequences complete
/// often.
inline Trace MakeTrace(uint32_t seed, size_t num_events,
                       const std::vector<std::string>& streams, int num_tags,
                       const TraceOptions& options = {}) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> pick_stream(0, streams.size() - 1);
  std::uniform_int_distribution<int> pick_tag(0, num_tags - 1);
  std::uniform_int_distribution<Duration> step(Milliseconds(50), Seconds(2));
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int> pick_reader(0, options.num_readers - 1);
  Trace events;
  Timestamp now = Seconds(1);
  for (size_t i = 0; i < num_events; ++i) {
    if (options.heartbeats && pct(rng) < 8) {
      now += step(rng) * 4;
      events.push_back({"", {}, now});
      continue;
    }
    size_t stream = 0;
    int tag = 0;
    if (options.tag_first) {
      tag = pick_tag(rng);
      stream = pick_stream(rng);
    } else {
      stream = pick_stream(rng);
      tag = pick_tag(rng);
    }
    Value tag_value = Value::String("tag" + std::to_string(tag));
    if (options.numeric_tags) {
      tag_value = pct(rng) < 10 ? Value::Null() : Value::Int(tag);
    }
    Value reader = Value::String("r");
    if (options.num_readers > 1) {
      reader = Value::String("r" + std::to_string(pick_reader(rng)));
    }
    events.push_back({streams[stream],
                      {std::move(reader), std::move(tag_value),
                       Value::Time(now)},
                      now});
    now += step(rng);
  }
  return events;
}

/// The latest timestamp of the trace.
inline Timestamp LastTs(const Trace& events) {
  Timestamp last = kMinTimestamp;
  for (const Event& e : events) last = std::max(last, e.ts);
  return last;
}

// ---- run-matrix draws ------------------------------------------------------

/// Odd seeds run with a live reorder stage (400 ms), even seeds without
/// it. The sweeps run seeds 1, 2 and 3 and derive each run's seed from
/// them; every derivation they use (`a * seed + b` with an odd `a`, or
/// `seed ^ c`) alternates parity from seed to seed, so every test runs at
/// both bounds. Each sweep checks its derivations with RunsBothBounds.
constexpr Duration LatenessBoundFor(uint32_t seed) {
  return (seed & 1u) != 0 ? Milliseconds(400) : Duration{0};
}

/// True when seeds 1, 2 and 3, passed through `derive`, cover both bounds.
template <typename Derive>
constexpr bool RunsBothBounds(Derive derive) {
  bool without = false;
  bool with = false;
  for (uint32_t seed = 1; seed <= 3; ++seed) {
    (LatenessBoundFor(derive(seed)) == 0 ? without : with) = true;
  }
  return without && with;
}

inline EngineOptions IngestOptionsWith(Duration lateness_bound) {
  EngineOptions options;
  options.ingest.lateness_bound = lateness_bound;
  return options;
}

/// Route batch sizes: tuple at a time, a size that splits runs unevenly,
/// a typical one, and one larger than any trace.
inline constexpr size_t kRouteBatchSizes[] = {1, 7, 64, 1024};

/// One of the first three route batch sizes.
inline size_t DrawRouteBatchSize(std::mt19937& rng) {
  return kRouteBatchSizes[std::uniform_int_distribution<size_t>(0, 2)(rng)];
}

inline ShardedEngineOptions ShardOptions(size_t num_shards,
                                         size_t route_batch_size = 1,
                                         EngineOptions engine = {}) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.route_batch_size = route_batch_size;
  options.engine = std::move(engine);
  return options;
}

/// An empty directory `name` under the test temp dir.
inline std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---- scenario catalogue ----------------------------------------------------

/// One query over its DDL and the streams its trace reads.
struct Scenario {
  std::string ddl;
  std::string query;
  std::vector<std::string> streams;
  /// Streams a sharded host routes to one shard (SetSingleShard): those
  /// of a query whose matches depend on order across tags.
  std::vector<std::string> single_shard_streams;
  /// How far past the last event the closing heartbeat advances.
  Duration tail_advance = Minutes(10);
};

inline constexpr char kSeqDdl[] = R"sql(
  CREATE STREAM C1(readerid, tagid, tagtime);
  CREATE STREAM C2(readerid, tagid, tagtime);
  CREATE STREAM C3(readerid, tagid, tagtime);
)sql";

/// SEQ(C1, C2, C3) with a window and a MODE clause (either may be
/// empty). Pairwise tagid equality keeps every match inside one tag
/// partition. Without it there is no routing key, and CONSECUTIVE
/// adjacency is a property of the joint history across tags: either
/// way a sharded host keeps the streams on one shard.
inline Scenario SeqScenario(const std::string& mode_clause,
                            const std::string& window_clause = "",
                            bool with_pairwise = true) {
  Scenario s;
  s.ddl = kSeqDdl;
  s.query = "SELECT C3.tagid, C1.tagtime, C3.tagtime FROM C1, C2, C3 "
            "WHERE SEQ(C1, C2, C3)" +
            window_clause + mode_clause;
  if (with_pairwise) {
    s.query += " AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid";
  }
  s.streams = {"C1", "C2", "C3"};
  if (!with_pairwise ||
      mode_clause.find("CONSECUTIVE") != std::string::npos) {
    s.single_shard_streams = s.streams;
  }
  return s;
}

/// SEQ(R1*, R2): a star group of R1 reads at most 1 s apart, closed by
/// an R2 within 5 s of its last read. Star extension depends on
/// interleaving across tags, so a sharded host keeps it on one shard.
inline Scenario StarScenario(const std::string& mode_clause =
                                 " MODE CHRONICLE") {
  Scenario s;
  s.ddl = R"sql(
    CREATE STREAM R1(readerid, tagid, tagtime);
    CREATE STREAM R2(readerid, tagid, tagtime);
  )sql";
  s.query = "SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime "
            "FROM R1, R2 WHERE SEQ(R1*, R2)" +
            mode_clause +
            " AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS"
            " AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS";
  s.streams = {"R1", "R2"};
  s.single_shard_streams = s.streams;
  return s;
}

/// Example 1's dedup: a windowed NOT EXISTS on (reader_id, tag_id).
inline Scenario DedupScenario() {
  Scenario s;
  s.ddl = R"sql(
    CREATE STREAM readings(reader_id, tag_id, read_time);
    CREATE STREAM cleaned(reader_id, tag_id, read_time);
  )sql";
  s.query = R"sql(
    INSERT INTO cleaned
    SELECT * FROM readings AS r1
    WHERE NOT EXISTS
      (SELECT * FROM TABLE( readings OVER
          (RANGE 2 seconds PRECEDING CURRENT)) AS r2
       WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id)
  )sql";
  s.streams = {"readings"};
  return s;
}

/// EXCEPTION_SEQ(C1, C2, C3) with a 10-minute deadline anchored at C1,
/// tag-linked; the closing heartbeat passes every open deadline.
inline Scenario ExceptionSeqScenario() {
  Scenario s;
  s.ddl = kSeqDdl;
  s.query = "SELECT C1.tagid, C1.tagtime FROM C1, C2, C3 "
            "WHERE EXCEPTION_SEQ(C1, C2, C3) OVER [10 MINUTES FOLLOWING C1] "
            "AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid";
  s.streams = {"C1", "C2", "C3"};
  s.tail_advance = Minutes(30);
  return s;
}

// ---- host runners ----------------------------------------------------------

using Rows = std::vector<std::string>;

inline Rows Sorted(Rows rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Feed one event: a read, or a heartbeat.
template <typename Host>
Status PushEvent(Host& host, const Event& e) {
  return e.stream.empty() ? host.AdvanceTime(e.ts)
                          : host.Push(e.stream, e.values, e.ts);
}

/// Feed events [from, to), failing the test at the first one rejected.
template <typename Host>
void PushEvents(Host& host, const Trace& events, size_t from, size_t to) {
  for (size_t i = from; i < to; ++i) {
    const Status pushed = PushEvent(host, events[i]);
    ASSERT_TRUE(pushed.ok()) << "event " << i << ": " << pushed;
  }
}

/// Register the scenario's query on `host` (routing its single-shard
/// streams on a sharded host) and append every emission to `rows`.
/// Returns the query's output stream.
template <typename Host>
std::string Attach(Host& host, const Scenario& s, Rows* rows) {
  EXPECT_TRUE(host.ExecuteScript(s.ddl).ok());
  auto q = host.RegisterQuery(s.query);
  EXPECT_TRUE(q.ok()) << q.status() << "\n" << s.query;
  if (!q.ok()) return "";
  if constexpr (!std::is_same_v<Host, Engine>) {
    for (const std::string& stream : s.single_shard_streams) {
      EXPECT_TRUE(host.SetSingleShard(stream).ok());
    }
  }
  EXPECT_TRUE(
      host.Subscribe(q->output_stream,
                     [rows](const Tuple& t) { rows->push_back(t.ToString()); })
          .ok());
  return q->output_stream;
}

/// Deliver everything in flight: a sharded host flushes its route
/// batches and shard queues, then drains; an Engine delivers
/// synchronously.
template <typename Host>
void Settle(Host& host) {
  if constexpr (!std::is_same_v<Host, Engine>) {
    EXPECT_TRUE(host.Flush().ok());
    host.DrainOutputs();
  }
}

/// The closing heartbeat, `tail_advance` past the last event, then
/// Settle.
template <typename Host>
void Close(Host& host, const Scenario& s, const Trace& events) {
  EXPECT_TRUE(host.AdvanceTime(LastTs(events) + s.tail_advance).ok());
  Settle(host);
}

/// A check a sweep makes on a host at a point of a run.
template <typename Host>
using HostCheck = std::function<void(Host&)>;

template <typename Host, typename Options>
Rows RunUninterrupted(const Scenario& s, const Trace& events,
                      const Options& options, const HostCheck<Host>& at_end) {
  Host host(options);
  Rows rows;
  Attach(host, s, &rows);
  PushEvents(host, events, 0, events.size());
  Close(host, s, events);
  if (at_end) at_end(host);
  return rows;
}

/// The scenario's query over the whole trace on one Engine, rows in
/// emission order; `at_end` runs after the closing heartbeat.
inline Rows RunEngine(const Scenario& s, const Trace& events,
                      const EngineOptions& options = {},
                      const HostCheck<Engine>& at_end = nullptr) {
  return RunUninterrupted<Engine>(s, events, options, at_end);
}

/// The same on a ShardedEngine, rows in drain order.
inline Rows RunSharded(const Scenario& s, const Trace& events,
                       const ShardedEngineOptions& options) {
  return RunUninterrupted<ShardedEngine>(s, events, options, nullptr);
}

/// What the consumer holds when the host dies, and so what recovery
/// delivers to it again.
enum class Consumer {
  /// Every emission before the crash, so replay re-delivers none: an
  /// Engine's consumer acknowledges its count (deliver_after), a sharded
  /// one drains everything before the crash and replay stays muted.
  kHoldsAll,
  /// Only what it drained right after the checkpoint (sharded hosts):
  /// the host dies without a flush or a drain, with route batches
  /// pending, and replay re-delivers every emission after the cut.
  kHoldsCheckpoint,
};

/// Where a run is cut: a checkpoint after the first `checkpoint_at`
/// events and a crash after the first `kill_at`. With `wal`, every input
/// is logged (durable at each append) and a fresh host recovers from the
/// checkpoint plus the WAL; without it the run dies at the checkpoint
/// (`kill_at` equals `checkpoint_at`) and the fresh host restores it.
struct KillPlan {
  size_t checkpoint_at = 0;
  size_t kill_at = 0;
  bool wal = true;
  Consumer consumer = Consumer::kHoldsAll;
};

/// Run the trace on a host built from `options`, cut as `plan` says in
/// the empty directory `dir`, recover into a host built from
/// `recover_options` and finish the trace there. Returns the emissions
/// the consumer received, before and after the crash, in order.
/// `at_kill` runs on the dying host, `at_end` after the closing
/// heartbeat.
template <typename Host, typename Options>
Rows RunKilled(const Scenario& s, const Trace& events, const Options& options,
               const Options& recover_options, const KillPlan& plan,
               const std::string& dir,
               const HostCheck<Host>& at_kill = nullptr,
               const HostCheck<Host>& at_end = nullptr) {
  constexpr bool kEngine = std::is_same_v<Host, Engine>;
  EXPECT_TRUE(plan.wal || plan.kill_at == plan.checkpoint_at);
  WalOptions wal_options;
  wal_options.group_commit_bytes = 0;  // every append durable at the kill
  Rows rows;
  std::string output_stream;
  {
    Host a(options);
    output_stream = Attach(a, s, &rows);
    if (plan.wal) {
      EXPECT_TRUE(a.EnableWal(dir + "/" + kWalFileName, wal_options).ok());
    }
    PushEvents(a, events, 0, plan.checkpoint_at);
    EXPECT_TRUE(a.Checkpoint(dir).ok());
    if constexpr (!kEngine) {
      if (plan.consumer == Consumer::kHoldsCheckpoint) a.DrainOutputs();
    }
    PushEvents(a, events, plan.checkpoint_at, plan.kill_at);
    if (at_kill) at_kill(a);
    if (plan.consumer == Consumer::kHoldsAll) Settle(a);
  }  // crash: only the checkpoint and the WAL survive

  Host b(recover_options);
  Attach(b, s, &rows);
  if (plan.wal) {
    ReplayOptions replay;
    if (plan.consumer == Consumer::kHoldsCheckpoint) {
      replay.deliver_callbacks = true;
    } else if (kEngine) {
      replay.deliver_after[output_stream] = rows.size();
    }
    const Status recovered = b.RecoverFrom(dir, replay);
    EXPECT_TRUE(recovered.ok()) << recovered;
  } else {
    const Status restored = b.Restore(dir);
    EXPECT_TRUE(restored.ok()) << restored;
  }
  PushEvents(b, events, plan.kill_at, events.size());
  Close(b, s, events);
  if (at_end) at_end(b);
  return rows;
}

/// Where a replicated run fails: a checkpoint after the first
/// `checkpoint_at` events (which provisions the standbys), shard
/// `victim` killed after the first `kill_at`, and its standby promoted
/// after the first `resume_at`.
struct PromotePlan {
  size_t checkpoint_at = 0;
  size_t kill_at = 0;
  size_t resume_at = 0;
  size_t victim = 0;
};

/// Run the trace on a ReplicatedShardedEngine in the empty directory
/// `dir`, cut as `plan` says. The consumer drains everything before the
/// kill; events pushed in the dark window reach only the WAL, which is
/// what the victim's standby replays. Replicate() runs every 40 events,
/// so shipping and apply run incrementally rather than as one catch-up
/// at promotion. Returns the emissions in drain order.
inline Rows RunPromoted(const Scenario& s, const Trace& events,
                        size_t num_shards, size_t route_batch_size,
                        const PromotePlan& plan, const std::string& dir) {
  ReplicatedShardedEngineOptions options;
  options.num_shards = num_shards;
  options.route_batch_size = route_batch_size;
  options.dir = dir;
  options.wal.group_commit_bytes = 0;  // every append durable at the kill
  options.wal.segment_bytes = 2048;    // rotate mid-trace: sealed + live ship
  auto opened = ReplicatedShardedEngine::Open(options);
  EXPECT_TRUE(opened.ok()) << opened.status();
  if (!opened.ok()) return {};
  ReplicatedShardedEngine& engine = **opened;
  Rows rows;
  Attach(engine, s, &rows);
  const auto push = [&](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      const Status pushed = PushEvent(engine, events[i]);
      ASSERT_TRUE(pushed.ok()) << "event " << i << ": " << pushed;
      if (i % 40 == 17) {
        const Status replicated = engine.Replicate();
        EXPECT_TRUE(replicated.ok()) << replicated;
      }
    }
  };
  push(0, plan.checkpoint_at);
  EXPECT_TRUE(engine.Flush().ok());
  const Status ckpt = engine.Checkpoint();
  EXPECT_TRUE(ckpt.ok()) << ckpt;
  push(plan.checkpoint_at, plan.kill_at);
  Settle(engine);
  EXPECT_TRUE(engine.KillShard(plan.victim).ok());
  push(plan.kill_at, plan.resume_at);
  auto healed = engine.HealFailures();
  EXPECT_TRUE(healed.ok()) << healed.status();
  if (healed.ok()) {
    EXPECT_EQ(*healed, 1u);
  }
  push(plan.resume_at, events.size());
  Close(engine, s, events);
  return rows;
}

}  // namespace eslev

#endif  // ESLEV_TESTS_PROPERTY_DIFFERENTIAL_HARNESS_H_
