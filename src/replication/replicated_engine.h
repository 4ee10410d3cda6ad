// ReplicatedShardedEngine: a ShardedEngine with one hot standby per
// shard, fed by WAL segment shipping, promotable at a watermark-aligned
// cut when a shard worker dies (DESIGN.md §12).
//
// Directory layout under `options.dir`:
//   wal.log[, wal.log.<id>.seg, wal.log.segments]   primary WAL chain
//   checkpoint/            latest coordinated checkpoint
//   standby/wal.log*       shipped copy of the WAL chain
//   standby/checkpoint/    shipped copy of the checkpoint
//
// The control loop is caller-driven: Replicate() runs one ship + apply
// round (call it periodically), Checkpoint() takes a coordinated
// checkpoint and (re)provisions standbys from it, KillShard() injects a
// worker failure, and HealFailures() promotes the standby of every dead
// shard. Promotion holds the WAL mutex — the same cut Checkpoint uses —
// so the promoted engine's history is exactly the WAL prefix, and the
// primary's per-subscription delivered counts suppress every emission
// the dead worker already delivered. Outputs are byte-identical to a
// failure-free run (tests/property/recovery_differential_test.cc proves
// it against a single-engine oracle).
//
// WAL retention: standbys act as a replication slot — checkpoint-driven
// truncation never drops a sealed segment holding records some healthy
// standby has not applied (ShardedEngine::wal_truncate_floor_).

#ifndef ESLEV_REPLICATION_REPLICATED_ENGINE_H_
#define ESLEV_REPLICATION_REPLICATED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_engine.h"
#include "replication/log_shipper.h"
#include "replication/standby.h"

namespace eslev {

struct ReplicatedShardedEngineOptions {
  size_t num_shards = 4;
  /// Options for every shard engine (primary and standby alike).
  EngineOptions engine;
  /// The primary's route batch size (ShardedEngineOptions).
  size_t route_batch_size = 1;
  /// Root directory for the WAL, checkpoints, and shipped copies.
  std::string dir;
  /// Primary WAL options. segment_bytes == 0 is overridden to 64 KiB:
  /// shipping and slot-based retention need rotation.
  WalOptions wal;
};

class ReplicatedShardedEngine {
 public:
  static Result<std::unique_ptr<ReplicatedShardedEngine>> Open(
      ReplicatedShardedEngineOptions options);

  ReplicatedShardedEngine(const ReplicatedShardedEngine&) = delete;
  ReplicatedShardedEngine& operator=(const ReplicatedShardedEngine&) = delete;

  // ---- setup (complete before the first Checkpoint) ----------------------

  Status ExecuteScript(const std::string& sql);
  Result<QueryInfo> RegisterQuery(const std::string& sql);
  Status Subscribe(const std::string& stream, TupleCallback callback);
  Status SetPartitionKey(const std::string& stream, const std::string& column);
  Status SetSingleShard(const std::string& stream);
  /// \brief Like ShardedEngine::Explain; EXPLAIN ANALYZE output carries
  /// an extra `-- replication --` section with the replication metrics.
  Result<std::string> Explain(const std::string& sql);

  // ---- data plane (thread-safe; passthrough to the primary) --------------

  Status Push(const std::string& stream, std::vector<Value> values,
              Timestamp ts);
  Status PushTuple(const std::string& stream, const Tuple& tuple);
  int RegisterProducer();
  Status AdvanceProducer(int id, Timestamp now);
  Status AdvanceTime(Timestamp now);
  Status Flush();
  size_t DrainOutputs();
  Result<std::vector<Tuple>> ExecuteSnapshot(const std::string& sql);

  // ---- replication control ------------------------------------------------

  /// \brief Coordinated checkpoint + standby provisioning: replicate,
  /// checkpoint the primary, ship the checkpoint, build a standby for
  /// every shard lacking a healthy one, and prune shipped segments no
  /// standby needs anymore. Requires every shard alive (heal first).
  Status Checkpoint();

  /// \brief One replication round: flush + ship the WAL chain, apply it
  /// on every standby, ack delivered emissions, and advance the WAL
  /// truncation floor. Unhealthy standbys are skipped (their sticky
  /// error is visible via standby(); the next Checkpoint rebuilds them).
  Status Replicate();

  /// \brief Failure injection: close the shard's mailbox (dropping the
  /// queued backlog, exactly like a crash), join the worker thread, and
  /// discard the shard engine. Already-dead shards are a no-op. The
  /// shard's outbox and delivered counts survive — they are coordinator
  /// memory, the basis for duplicate suppression at promotion.
  Status KillShard(size_t shard);

  /// \brief Promote the standby of every dead shard; returns how many
  /// promotions ran. A shard whose standby is missing or unhealthy stays
  /// dead and surfaces the error.
  Result<size_t> HealFailures();

  /// \brief Promote shard `shard`'s standby at a watermark-aligned cut:
  /// catch the standby up to the exact end of the WAL (refusing if it
  /// cannot get there), install its engine, enqueue the emissions the
  /// dead worker never delivered, and restart the worker.
  Status PromoteStandby(size_t shard);

  // ---- observability ------------------------------------------------------

  size_t num_shards() const { return primary_.num_shards(); }
  Timestamp low_watermark() const { return primary_.low_watermark(); }
  bool shard_alive(size_t shard) const;
  /// The shard's standby, or nullptr when none is provisioned.
  const StandbyShard* standby(size_t shard) const;
  uint64_t promotions() const {
    return promotions_.load(std::memory_order_relaxed);
  }
  int64_t last_promotion_duration_us() const {
    return last_promotion_duration_us_.load(std::memory_order_relaxed);
  }
  uint64_t promotion_catchup_records() const {
    return promotion_catchup_records_.load(std::memory_order_relaxed);
  }

  /// \brief The primary's merged snapshot plus the `replication.` family:
  /// ship lag (bytes), per-standby apply lag (LSN and watermark time),
  /// promotion count and latency.
  Result<MetricsSnapshot> Metrics();

 private:
  explicit ReplicatedShardedEngine(ReplicatedShardedEngineOptions options);

  /// Setup calls are recorded and replayed onto every standby so its
  /// engine evolves in lockstep with the shard it mirrors.
  struct SetupOp {
    enum class Kind { kScript, kQuery, kSubscribe };
    Kind kind;
    std::string arg;
  };

  Status BuildStandby(size_t shard);
  Status CopyCheckpointToStandby();
  void AppendReplicationMetrics(MetricsSnapshot* snap);

  ReplicatedShardedEngineOptions options_;
  std::string wal_path_;
  std::string ckpt_dir_;
  std::string standby_wal_path_;
  std::string standby_ckpt_dir_;

  ShardedEngine primary_;
  std::unique_ptr<LogShipper> shipper_;
  std::vector<std::unique_ptr<StandbyShard>> standbys_;
  std::vector<SetupOp> setup_;

  std::atomic<uint64_t> promotions_{0};
  std::atomic<int64_t> last_promotion_duration_us_{0};
  std::atomic<uint64_t> promotion_catchup_records_{0};
};

}  // namespace eslev

#endif  // ESLEV_REPLICATION_REPLICATED_ENGINE_H_
