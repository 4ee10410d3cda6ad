// ShardedEngine: hash-partitioned parallel execution of N independent
// Engine instances (DESIGN.md §8).
//
// The paper's RFID queries partition naturally by tag identity: dedup
// (Example 1) anti-joins on (reader_id, tag_id), SEQ pipelines join on
// tagid, EPC aggregation groups by EPC fields. ShardedEngine exploits
// that: every shard runs the full query set over the slice of each
// stream whose partition-key hash lands on it, on its own thread behind
// its own MPSC queue. Setup (DDL / RegisterQuery / Subscribe /
// SetPartitionKey) is broadcast to all shards and must complete before
// producers start feeding; the data plane (Push / PushTuple /
// AdvanceProducer / AdvanceTime) is thread-safe.
//
// Time is advanced by a low-watermark protocol (watermark.h): producer
// heartbeats fan out to ALL shards once the minimum producer clock
// moves, so active expiration (window-expiry-triggered EXCEPTION_SEQ
// violations) fires even on shards receiving no tuples. Within a shard,
// tuples are clamped forward to the shard clock (ApplyShardTuple in
// shard_routing.h), keeping each shard's joint history totally ordered
// no matter how producers interleave.
//
// Emission: shard-side subscription callbacks buffer into per-shard
// outboxes (per-shard order preserved); DrainOutputs() merges the
// outboxes by timestamp on the caller's thread and invokes user
// callbacks there — one consumer-safe emission path.
//
// Queries whose match conditions cross partitions (e.g. Example 5's
// EXCEPTION_SEQ over a workflow shared by all tags) must fall back to a
// single shard: route their source streams with SetSingleShard().

#ifndef ESLEV_CORE_SHARDED_ENGINE_H_
#define ESLEV_CORE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/mpsc_queue.h"
#include "core/shard_routing.h"
#include "core/watermark.h"

namespace eslev {

class ReplicatedShardedEngine;

struct ShardedEngineOptions {
  /// Number of worker-owned Engine instances. 1 degenerates to a
  /// single-threaded engine behind a queue.
  size_t num_shards = 4;
  /// Options applied to every shard engine.
  EngineOptions engine;
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options = {});
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // ---- setup (broadcast; complete before producers push) -----------------
  //
  // ExecuteScript, RegisterQuery, UnregisterQuery and Subscribe change
  // the topology. Each quiesces every shard queue first (Flush), so the
  // change lands at the same stream position on every shard.

  /// \brief Run a script on every shard (DDL + continuous queries).
  Status ExecuteScript(const std::string& sql);

  /// \brief Register one continuous query on every shard. The returned
  /// QueryInfo is identical across shards (engines evolve in lockstep).
  Result<QueryInfo> RegisterQuery(const std::string& sql);

  /// \brief Unregister a continuous query on every shard (DESIGN.md
  /// §17), then prune routes whose `_q<id>` stream the unregistration
  /// dropped.
  Status UnregisterQuery(int id);

  /// \brief Broadcast Engine::SetNextQueryId to every shard — the
  /// recovery hook for re-registering query sets with id gaps.
  Status SetNextQueryId(int id);

  /// \brief Subscribe to a stream on every shard; the callback is only
  /// ever invoked from DrainOutputs(), on the draining thread.
  Status Subscribe(const std::string& stream, TupleCallback callback);

  /// \brief Override the partition column of a source stream. By default
  /// the first column named tag_id/tagid/tid/epc/tag partitions the
  /// stream, falling back to column 0.
  Status SetPartitionKey(const std::string& stream, const std::string& column);

  /// \brief Route every tuple of `stream` to shard 0 — the fallback for
  /// queries whose matches cross partition keys (cross-partition SEQ).
  Status SetSingleShard(const std::string& stream);

  /// \brief Plan a query on shard 0 and describe the pipeline. For
  /// `EXPLAIN ANALYZE` the output carries one annotated section per
  /// shard (each shard runs its own copy of every query, so the live
  /// counters differ).
  Result<std::string> Explain(const std::string& sql);

  // ---- data plane (thread-safe) ------------------------------------------

  /// \brief Route a tuple to its shard's queue. Returns immediately;
  /// pipeline errors surface on Flush(). The shard processes it by the
  /// next heartbeat, worker command, Flush() or DrainOutputs(), or once
  /// its mailbox holds 64 items, whichever comes first (DESIGN.md §8).
  Status Push(const std::string& stream, std::vector<Value> values,
              Timestamp ts);
  Status PushTuple(const std::string& stream, const Tuple& tuple);

  /// \brief Register an explicit producer for the watermark protocol.
  int RegisterProducer();

  /// \brief Report producer `id` reaching `now`; fans a heartbeat to all
  /// shards when the low watermark advances.
  Status AdvanceProducer(int id, Timestamp now);

  /// \brief Single-producer convenience: lazily registers one implicit
  /// producer and advances it.
  Status AdvanceTime(Timestamp now);

  // ---- durability (DESIGN.md §10) ----------------------------------------

  /// \brief Coordinated checkpoint: fan the current low watermark to all
  /// shards (so expiration state is aligned at the cut), quiesce every
  /// shard queue, write `<dir>/shard<i>/engine.ckpt` per shard, then the
  /// `<dir>/MANIFEST`. With the front-end WAL enabled the append mutex is
  /// held for the whole checkpoint, so concurrent producers serialize
  /// entirely before or after the cut and the WAL is truncated to exactly
  /// the records the checkpoint does not cover. Without a WAL the caller
  /// must pause producers around the call.
  Status Checkpoint(const std::string& dir);

  /// \brief Load a coordinated checkpoint into this engine. The caller
  /// rebuilds the identical topology on every shard first (same
  /// ExecuteScript/RegisterQuery sequence through ShardedEngine). The
  /// manifest and the existence of every shard checkpoint file are
  /// validated before any shard is touched — a manifest naming a missing
  /// shard file fails cleanly with no partial restore.
  Status Restore(const std::string& dir);

  /// \brief Start logging every routed tuple and fanned heartbeat to a
  /// front-end WAL at `path`, ahead of enqueueing. The append mutex is
  /// held across append + enqueue, so WAL order equals each shard's
  /// queue order and replay reproduces identical per-shard histories.
  /// Call during setup, before producers start pushing.
  Status EnableWal(const std::string& path, WalOptions options = {});

  /// \brief Crash recovery: Restore(dir), replay `<dir>/wal.log` through
  /// the normal routing (skipping records the checkpoint covers), then
  /// re-enable the WAL for new appends. Emissions regenerated during
  /// replay are discarded instead of delivered unless
  /// `options.deliver_callbacks` is set; per-stream `deliver_after` is
  /// not supported at the sharded level (per-shard outbox sequence
  /// numbers are not a global consumer position).
  Status RecoverFrom(const std::string& dir,
                     const ReplayOptions& options = {});

  // ---- consumption --------------------------------------------------------

  /// \brief Wait until every shard queue is drained and idle, then
  /// return the first sticky pipeline error (if any).
  Status Flush();

  /// \brief Wake every shard with queued input, then merge buffered
  /// emissions from all shards by (timestamp, shard, sequence) and invoke
  /// the subscription callbacks on the calling thread. Returns the number
  /// of tuples delivered. What the woken shards emit arrives at the next
  /// call.
  size_t DrainOutputs();

  /// \brief Ad-hoc snapshot: flushes, executes on every shard, and
  /// gather-merges rows by timestamp. Correct for selection/projection
  /// over partitioned history; aggregate snapshots see per-shard
  /// partials and should use single-shard routing.
  Result<std::vector<Tuple>> ExecuteSnapshot(const std::string& sql);

  // ---- observability -------------------------------------------------------

  size_t num_shards() const { return shards_.size(); }
  /// \brief True when the routing layer runs a front-end ingest pipeline
  /// (EngineOptions::ingest enables a stage). Shard engines always run
  /// with ingest disabled: ordering and cleaning happen once, ahead of
  /// hash partitioning, so the WAL keeps raw input order and every shard
  /// sees the identical cleaned release sequence it would see in the
  /// single-engine run.
  bool ingest_enabled() const { return front_.ingest_enabled(); }
  const IngestOptions& ingest_options() const {
    return front_.ingest_options();
  }
  Timestamp low_watermark() const { return watermark_.low_watermark(); }
  /// \brief How far the fanned-out low watermark trails the fastest
  /// producer clock (0 when no producer registered yet).
  Duration watermark_lag() const {
    const Timestamp max_clock = watermark_.max_producer_clock();
    const Timestamp low = watermark_.low_watermark();
    return max_clock > low ? max_clock - low : 0;
  }
  /// \brief A copy of the routing table — what a standby filters the
  /// shipped WAL with (DESIGN.md §12).
  ShardRouting routing() const;
  /// \brief Tuples routed to each shard so far (for balance checks).
  std::vector<uint64_t> shard_tuple_counts() const;
  /// \brief Each shard engine's current time, read on its worker thread
  /// (so the read is serialized against processing).
  Result<std::vector<Timestamp>> shard_clocks();

  /// \brief Merged snapshot: every shard engine's metrics under a
  /// `shard<i>.` prefix, plus sharded-runtime gauges (per-shard mailbox
  /// depth, wake-ups, routed-tuple counts and liveness, read before the
  /// snapshot's own round trips drain the mailboxes; watermark
  /// low/max/lag) and the drain-merge reorder-distance histogram
  /// (DESIGN.md §9).
  Result<MetricsSnapshot> Metrics();

 private:
  struct Item {
    enum class Kind { kTuple, kHeartbeat, kCommand };
    Kind kind = Kind::kTuple;
    // kTuple: pre-resolved stream name (stable; owned by routing_).
    const std::string* stream = nullptr;
    Tuple tuple;
    // kHeartbeat
    Timestamp ts = 0;
    // kCommand: executed on the worker thread with exclusive engine
    // access; `done` (caller-owned) receives the status.
    std::function<Status(Engine&)> command;
    std::promise<Status>* done = nullptr;
  };

  struct Emission {
    Timestamp ts;
    uint64_t seq;
    size_t shard;
    size_t sub;
    Tuple tuple;
  };

  struct Shard {
    size_t index = 0;
    std::unique_ptr<Engine> engine;
    MpscQueue<Item> queue;
    std::thread worker;
    std::atomic<uint64_t> tuples_routed{0};
    /// Cleared when the worker is killed (replication failure injection);
    /// control-plane operations on a dead shard fail instead of hanging
    /// on its closed queue. Promotion restores it.
    std::atomic<bool> alive{true};

    std::mutex out_mu;
    std::vector<Emission> outbox;
    uint64_t out_seq = 0;
    /// Emissions ever appended to this shard's outbox, per subscription
    /// (guarded by out_mu). Because the shard engine's callbacks run
    /// synchronously during processing, this equals the shard's lifetime
    /// per-stream push count — the duplicate-suppression threshold a
    /// promoted standby must not re-emit at or below.
    std::vector<uint64_t> received_per_sub;

    /// Append one emission of subscription `sub` to the outbox and count
    /// it in received_per_sub: the one delivery path of the shard's
    /// subscription callbacks and of a promoted standby (DESIGN.md §12).
    void Deliver(size_t sub, Tuple tuple) {
      std::lock_guard<std::mutex> lock(out_mu);
      if (received_per_sub.size() <= sub) received_per_sub.resize(sub + 1, 0);
      ++received_per_sub[sub];
      outbox.push_back({tuple.ts(), out_seq++, index, sub, std::move(tuple)});
    }

    std::mutex err_mu;
    Status first_error = Status::OK();
  };

  void WorkerLoop(Shard* shard);
  void RecordError(Shard* shard, const Status& status);

  // The host side of the front end (core/front_end.h), which takes no
  // lock: Offer and Tick hold `wal_mu_` when they log (WAL order is then
  // every shard's queue order) and `ingest_mu_` around the pipeline.
  // Lock order: routes_mu_ (shared) -> wal_mu_ -> ingest_mu_.
  friend class FrontEnd<ShardedEngine, const StreamRoute>;
  /// \brief Resolve the route and pass the tuple to the front end,
  /// logged when `log` and the WAL is on (replay passes false: replayed
  /// records are already on disk).
  Status Offer(const std::string& stream, const Tuple& tuple, bool log);
  /// \brief Offer for a route already found; the caller holds
  /// `routes_mu_` shared.
  Status OfferRoute(const StreamRoute* route, const Tuple& tuple, bool log);
  /// \brief Pass a tick to the front end, logged when `log`.
  Status Tick(Timestamp now, bool log);
  /// \brief Run `fn(log)` under the front end's locks: `wal_mu_` when
  /// `log` and the WAL is on (`fn` receives whether to log), `ingest_mu_`
  /// when ingest is on.
  template <typename Fn>
  Status WithFrontEnd(bool log, Fn&& fn);
  /// \brief Enqueue one ordered tuple on its shard: an input when ingest
  /// is off, else a release of the pipeline (under `ingest_mu_`). No WAL
  /// append — recovery re-derives releases by replaying raw input
  /// through the restored pipeline.
  Status DeliverTuple(const StreamRoute* route, Tuple tuple);
  /// \brief Fan an ordered heartbeat to every shard, remembering it as
  /// the last one the front end released.
  Status DeliverHeartbeat(Timestamp now);
  /// \brief Enqueue a heartbeat item on every shard: a control item, so
  /// it wakes the worker, which processes the tuples queued before it
  /// first.
  void FanHeartbeat(Timestamp now);

  /// \brief Enqueue one routed tuple on its shard as a data item, which
  /// does not wake the worker (DESIGN.md §8).
  void EnqueueRouted(size_t shard, const std::string* stream, Tuple tuple);

  /// \brief Fail fast when the shard's worker has been killed (its queue
  /// is closed, so a command pushed there would never resolve).
  Status CheckAlive(size_t shard) const;
  Status CheckAllAlive() const;

  /// \brief Run `fn(shard index, engine)` on every shard's worker
  /// thread; wait; first error.
  Status RunOnAllShards(const std::function<Status(size_t, Engine&)>& fn);
  /// \brief Run `fn` on one shard's worker thread and wait.
  Status RunOnShard(size_t shard, const std::function<Status(Engine&)>& fn);

  /// \brief Re-derive routes for streams created since the last refresh
  /// (reads shard 0's catalog on its worker thread).
  Status RefreshRoutes();
  /// \brief Drop routes for streams that no longer exist on shard 0
  /// (after UnregisterQuery removed an auto-created output stream).
  Status PruneDeadRoutes();

  ShardedEngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // An invalid ingest option, surfaced lazily (the constructor cannot
  // return a Status).
  Status init_error_ = Status::OK();

  mutable std::shared_mutex routes_mu_;
  ShardRouting routing_;  // guarded by routes_mu_

  WatermarkTracker watermark_;
  std::mutex implicit_producer_mu_;
  int implicit_producer_ = -1;

  // Front-end ingest (DESIGN.md §15): one pipeline ahead of the hash
  // partitioner. `ingest_mu_` serializes all pipeline access; delivery
  // callbacks run inside it.
  // `ingest_fanned_hb_` is the last heartbeat the pipeline released to
  // the shards — the alignment point for checkpoint quiesce (fanning
  // the raw low watermark would run shard clocks ahead of the held-back
  // release frontier and clamp future releases forward).
  std::mutex ingest_mu_;
  std::atomic<Timestamp> ingest_fanned_hb_{kMinTimestamp};

  /// How far tuples move during the drain-merge sort: 0 means per-shard
  /// order was already globally ordered; large values mean heavy
  /// cross-shard interleaving at equal-or-close timestamps.
  Histogram drain_reorder_distance_;

  // Subscriptions; mutated during setup, read by DrainOutputs.
  std::vector<TupleCallback> callbacks_;

  // Front-end durability (sharded_engine_checkpoint.cc). `wal_mu_` is
  // held across WAL append + queue push so the log's total order is a
  // linearization of every shard's queue order; Checkpoint holds it for
  // the whole cut. `wal_enabled_` gates the mutex so the no-WAL hot path
  // stays lock-free.
  std::atomic<bool> wal_enabled_{false};
  std::mutex wal_mu_;
  FrontEnd<ShardedEngine, const StreamRoute> front_;
  std::atomic<uint64_t> checkpoints_taken_{0};
  std::atomic<uint64_t> last_checkpoint_bytes_{0};
  std::atomic<int64_t> last_checkpoint_duration_us_{0};
  std::atomic<uint64_t> replay_outputs_discarded_{0};
  /// Replication slot: checkpoint-driven WAL truncation never drops
  /// records at or above this LSN, so sealed segments a standby still
  /// needs survive the checkpoint. UINT64_MAX = no restriction.
  std::atomic<uint64_t> wal_truncate_floor_{UINT64_MAX};

  /// The replication layer (src/replication/) kills, ships, and promotes
  /// around the same internals this class uses; it is a coordinator-side
  /// extension rather than an external client.
  friend class ReplicatedShardedEngine;
};

}  // namespace eslev

#endif  // ESLEV_CORE_SHARDED_ENGINE_H_
