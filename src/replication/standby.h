// StandbyShard: a hot standby for one shard of a ShardedEngine
// (DESIGN.md §12).
//
// The standby owns a private Engine built with the primary's setup
// sequence (same scripts, queries, and subscriptions, in order — so
// stream ids, query ids, and subscription ids line up), bootstraps from
// the latest shipped coordinated checkpoint, and then applies the
// shipped front-end WAL incrementally. Because the sharded WAL is a
// linearization of every shard's queue order, replaying the records the
// primary's routing table sends to this shard, through the worker's own
// apply functions (core/shard_routing.h), reproduces the dead worker's
// history bit for bit.
//
// Emissions the replayed engine produces are buffered with the stream's
// push sequence number attached. The primary counts the emissions each
// subscription actually delivered into its outbox (received_per_sub);
// at promotion, buffered emissions at or below that count are duplicates
// and are dropped, the remainder are exactly the emissions the dead
// worker never delivered. AckDelivered() prunes the buffer between
// replication rounds so it holds only the undelivered frontier.
//
// Health is sticky: an LSN gap (a shipped record is missing) or a
// corrupt shipped segment permanently fails the standby, and promotion
// must refuse it — a standby that skipped records would silently diverge.

#ifndef ESLEV_REPLICATION_STANDBY_H_
#define ESLEV_REPLICATION_STANDBY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "core/engine.h"
#include "core/shard_routing.h"
#include "recovery/wal.h"

namespace eslev {

/// \brief One buffered output tuple: `seq` is the output stream's push
/// count at emission time — comparable to the primary's delivered count
/// for the same subscription.
struct ReplicaEmission {
  size_t sub = 0;
  uint64_t seq = 0;
  Tuple tuple;
};

struct StandbyShardOptions {
  size_t shard_id = 0;
  /// The primary's routing table (ShardedEngine::routing()); the standby
  /// applies exactly the WAL records it routes to `shard_id`.
  ShardRouting routing;
  EngineOptions engine;
};

class StandbyShard {
 public:
  explicit StandbyShard(StandbyShardOptions options);

  // ---- topology mirror (same order as on the primary) --------------------

  Status ExecuteScript(const std::string& sql);
  Status RegisterQuery(const std::string& sql);
  /// \brief Mirror of subscription `sub` (assigned in call order); the
  /// standby buffers its emissions instead of delivering them.
  Status Subscribe(const std::string& stream);

  // ---- replication --------------------------------------------------------

  /// \brief Load the shard's engine checkpoint from a shipped coordinated
  /// checkpoint directory (the root holding MANIFEST + shard<i>/) and
  /// position the applier at the manifest's covered LSN.
  Status Bootstrap(const std::string& checkpoint_dir);

  /// \brief Apply new records of the shipped WAL chain at `wal_path`:
  /// sealed segments past the last applied one, then the live copy past
  /// the applied offset. Tolerates a torn live tail (waits for the rest);
  /// a sealed segment that fails ReadSealedSegment, a record routed by
  /// no route or too short for its key, or an LSN gap fails the standby
  /// for good.
  Status Apply(const std::string& wal_path);

  /// \brief The primary delivered `delivered` emissions for subscription
  /// `sub` so far; buffered emissions at or below that seq are duplicates.
  void AckDelivered(size_t sub, uint64_t delivered);

  // ---- promotion ----------------------------------------------------------

  /// \brief Apply the fanned low watermark as one more shard heartbeat
  /// (ApplyShardHeartbeat: a tick behind the clock is dropped), firing
  /// any remaining active expiration at the cut. Normally a repeat of the
  /// last logged heartbeat, which emits nothing new.
  Status AlignClock(Timestamp low);

  /// \brief Drain the buffer, dropping emissions the primary already
  /// delivered (`delivered[sub]` is the per-subscription threshold;
  /// missing entries mean none delivered). What remains — in emission
  /// order — is exactly what the dead worker never delivered.
  std::vector<ReplicaEmission> TakeBufferedAfter(
      const std::vector<uint64_t>& delivered);

  /// \brief From now on route emissions into `sink` instead of the
  /// buffer — the promoted engine feeds the shard outbox directly.
  void RedirectEmissions(std::function<void(size_t, const Tuple&)> sink);

  /// \brief Release the engine to the caller (promotion installs it as
  /// the shard's engine). The StandbyShard is spent afterwards.
  std::unique_ptr<Engine> TakeEngine();

  // ---- observability ------------------------------------------------------

  uint64_t applied_lsn() const { return applied_lsn_; }
  Timestamp applied_watermark() const { return applied_watermark_; }
  uint64_t records_applied() const { return records_applied_; }
  size_t buffered_emissions() const;
  /// Sticky: first unrecoverable apply error (gap / corruption).
  const Status& health() const { return health_; }

 private:
  /// Shared with the engine's subscription callbacks, which outlive this
  /// object once TakeEngine() hands the engine to the shard.
  struct Sink {
    std::mutex mu;
    std::vector<ReplicaEmission> buffer;
    std::function<void(size_t, const Tuple&)> redirect;
  };

  Status ApplyRecord(const WalRecord& record);
  Status Fail(Status status);  // records sticky health, returns it

  StandbyShardOptions options_;
  std::unique_ptr<Engine> engine_;
  std::shared_ptr<Sink> sink_;
  size_t subscriptions_ = 0;

  uint64_t applied_lsn_ = 0;
  Timestamp applied_watermark_ = kMinTimestamp;
  uint64_t records_applied_ = 0;
  uint64_t last_applied_segment_id_ = 0;
  uint64_t live_offset_ = 0;  // consumed bytes of the shipped live copy
  Status health_ = Status::OK();
};

}  // namespace eslev

#endif  // ESLEV_REPLICATION_STANDBY_H_
