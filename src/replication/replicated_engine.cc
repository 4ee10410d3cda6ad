#include "replication/replicated_engine.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <utility>

#include "recovery/checkpoint.h"
#include "sql/parser.h"

namespace eslev {

ReplicatedShardedEngine::ReplicatedShardedEngine(
    ReplicatedShardedEngineOptions options)
    : options_(std::move(options)),
      wal_path_(options_.dir + "/" + kWalFileName),
      ckpt_dir_(options_.dir + "/checkpoint"),
      standby_wal_path_(options_.dir + "/standby/" + kWalFileName),
      standby_ckpt_dir_(options_.dir + "/standby/checkpoint"),
      primary_({options_.num_shards, options_.engine,
                options_.route_batch_size}),
      standbys_(primary_.num_shards()) {}

Result<std::unique_ptr<ReplicatedShardedEngine>> ReplicatedShardedEngine::Open(
    ReplicatedShardedEngineOptions options) {
  if (options.dir.empty()) {
    return Status::Invalid("ReplicatedShardedEngine needs a directory");
  }
  // Standby provisioning replays the shipped WAL with shard-filtered
  // routing of RAW records; a front-end ingest pipeline derives releases
  // from cross-shard state the filter discards, so replication and
  // ingest do not compose yet. Validate exactly as ShardedEngine would
  // and reject an enabled result.
  ESLEV_RETURN_NOT_OK(ValidateIngestOptions(options.engine.ingest));
  if (options.engine.ingest.enabled()) {
    return Status::Invalid(
        "ReplicatedShardedEngine does not support ingest "
        "(reorder/cleaning); run ingest upstream or use ShardedEngine");
  }
  if (options.wal.segment_bytes == 0) options.wal.segment_bytes = 64 * 1024;
  std::error_code ec;
  std::filesystem::create_directories(options.dir + "/standby", ec);
  if (ec) {
    return Status::IoError("cannot create replication dir " + options.dir +
                           ": " + ec.message());
  }
  std::unique_ptr<ReplicatedShardedEngine> engine(
      new ReplicatedShardedEngine(std::move(options)));
  ESLEV_RETURN_NOT_OK(
      engine->primary_.EnableWal(engine->wal_path_, engine->options_.wal));
  engine->shipper_ = std::make_unique<LogShipper>(engine->wal_path_,
                                                  engine->standby_wal_path_);
  return engine;
}

// ---- setup -----------------------------------------------------------------

Status ReplicatedShardedEngine::ExecuteScript(const std::string& sql) {
  ESLEV_RETURN_NOT_OK(primary_.ExecuteScript(sql));
  setup_.push_back({SetupOp::Kind::kScript, sql});
  return Status::OK();
}

Result<QueryInfo> ReplicatedShardedEngine::RegisterQuery(
    const std::string& sql) {
  ESLEV_ASSIGN_OR_RETURN(QueryInfo info, primary_.RegisterQuery(sql));
  setup_.push_back({SetupOp::Kind::kQuery, sql});
  return info;
}

Status ReplicatedShardedEngine::Subscribe(const std::string& stream,
                                          TupleCallback callback) {
  ESLEV_RETURN_NOT_OK(primary_.Subscribe(stream, std::move(callback)));
  setup_.push_back({SetupOp::Kind::kSubscribe, stream});
  return Status::OK();
}

Status ReplicatedShardedEngine::SetPartitionKey(const std::string& stream,
                                                const std::string& column) {
  return primary_.SetPartitionKey(stream, column);
}

Status ReplicatedShardedEngine::SetSingleShard(const std::string& stream) {
  return primary_.SetSingleShard(stream);
}

Result<std::string> ReplicatedShardedEngine::Explain(const std::string& sql) {
  ESLEV_ASSIGN_OR_RETURN(std::string out, primary_.Explain(sql));
  bool analyze = false;
  {
    auto stmt = ParseStatement(sql);
    if (stmt.ok() && (*stmt)->kind == StatementKind::kExplain) {
      analyze = static_cast<const ExplainStmt&>(**stmt).mode ==
                ExplainMode::kAnalyze;
    }
  }
  if (!analyze) return out;
  MetricsSnapshot snap;
  AppendReplicationMetrics(&snap);
  out += "\n-- replication --\n";
  for (const auto& [name, value] : snap.counters) {
    out += name + " = " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    out += name + " = " + std::to_string(value) + "\n";
  }
  return out;
}

// ---- data plane ------------------------------------------------------------

Status ReplicatedShardedEngine::Push(const std::string& stream,
                                     std::vector<Value> values, Timestamp ts) {
  return primary_.Push(stream, std::move(values), ts);
}

Status ReplicatedShardedEngine::PushTuple(const std::string& stream,
                                          const Tuple& tuple) {
  return primary_.PushTuple(stream, tuple);
}

int ReplicatedShardedEngine::RegisterProducer() {
  return primary_.RegisterProducer();
}

Status ReplicatedShardedEngine::AdvanceProducer(int id, Timestamp now) {
  return primary_.AdvanceProducer(id, now);
}

Status ReplicatedShardedEngine::AdvanceTime(Timestamp now) {
  return primary_.AdvanceTime(now);
}

Status ReplicatedShardedEngine::Flush() { return primary_.Flush(); }

size_t ReplicatedShardedEngine::DrainOutputs() {
  return primary_.DrainOutputs();
}

Result<std::vector<Tuple>> ReplicatedShardedEngine::ExecuteSnapshot(
    const std::string& sql) {
  return primary_.ExecuteSnapshot(sql);
}

// ---- replication control ---------------------------------------------------

Status ReplicatedShardedEngine::BuildStandby(size_t shard) {
  auto sb = std::make_unique<StandbyShard>(
      StandbyShardOptions{shard, primary_.routing(), options_.engine});
  for (const SetupOp& op : setup_) {
    switch (op.kind) {
      case SetupOp::Kind::kScript:
        ESLEV_RETURN_NOT_OK(sb->ExecuteScript(op.arg));
        break;
      case SetupOp::Kind::kQuery:
        ESLEV_RETURN_NOT_OK(sb->RegisterQuery(op.arg));
        break;
      case SetupOp::Kind::kSubscribe:
        ESLEV_RETURN_NOT_OK(sb->Subscribe(op.arg));
        break;
    }
  }
  ESLEV_RETURN_NOT_OK(sb->Bootstrap(standby_ckpt_dir_));
  standbys_[shard] = std::move(sb);
  return Status::OK();
}

Status ReplicatedShardedEngine::CopyCheckpointToStandby() {
  std::error_code ec;
  std::filesystem::copy(ckpt_dir_, standby_ckpt_dir_,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing,
                        ec);
  if (ec) {
    return Status::IoError("cannot ship checkpoint to " + standby_ckpt_dir_ +
                           ": " + ec.message());
  }
  return Status::OK();
}

Status ReplicatedShardedEngine::Replicate() {
  {
    std::lock_guard<std::mutex> wal_lock(primary_.wal_mu_);
    ESLEV_RETURN_NOT_OK(primary_.front_.FlushWal().status());
  }
  ESLEV_RETURN_NOT_OK(shipper_->Ship());
  uint64_t floor = UINT64_MAX;
  for (size_t i = 0; i < standbys_.size(); ++i) {
    StandbyShard* sb = standbys_[i].get();
    if (sb == nullptr) continue;
    // A sticky apply error makes the standby unpromotable but must not
    // stop replication to the others (nor hold the truncation floor
    // back forever); the next Checkpoint rebuilds it.
    (void)sb->Apply(standby_wal_path_);
    std::vector<uint64_t> delivered;
    {
      std::lock_guard<std::mutex> out_lock(primary_.shards_[i]->out_mu);
      delivered = primary_.shards_[i]->received_per_sub;
    }
    for (size_t sub = 0; sub < delivered.size(); ++sub) {
      sb->AckDelivered(sub, delivered[sub]);
    }
    if (sb->health().ok()) {
      floor = std::min(floor, sb->applied_lsn() + 1);
    }
  }
  primary_.wal_truncate_floor_.store(floor, std::memory_order_release);
  return Status::OK();
}

Status ReplicatedShardedEngine::Checkpoint() {
  ESLEV_RETURN_NOT_OK(Replicate());
  ESLEV_RETURN_NOT_OK(primary_.Checkpoint(ckpt_dir_));
  ESLEV_RETURN_NOT_OK(CopyCheckpointToStandby());
  for (size_t i = 0; i < standbys_.size(); ++i) {
    if (standbys_[i] == nullptr || !standbys_[i]->health().ok()) {
      ESLEV_RETURN_NOT_OK(BuildStandby(i));
    }
  }
  // Sealed segments below both the checkpoint's covered LSN and every
  // standby's applied LSN serve no one anymore: new standbys bootstrap
  // from this checkpoint, existing ones are already past them.
  ESLEV_ASSIGN_OR_RETURN(ShardedManifest manifest, ReadManifest(ckpt_dir_));
  uint64_t bound = manifest.wal_last_lsn + 1;
  for (const auto& sb : standbys_) {
    if (sb != nullptr) bound = std::min(bound, sb->applied_lsn() + 1);
  }
  ESLEV_RETURN_NOT_OK(shipper_->PruneShippedBefore(bound));
  // Re-run a round so the truncation floor reflects the rebuilt standbys.
  return Replicate();
}

Status ReplicatedShardedEngine::KillShard(size_t shard) {
  if (shard >= primary_.shards_.size()) {
    return Status::Invalid("no shard " + std::to_string(shard));
  }
  ShardedEngine::Shard* s = primary_.shards_[shard].get();
  if (!s->alive.load(std::memory_order_acquire)) return Status::OK();
  // Mark dead first so control-plane calls fail fast instead of racing
  // the closing queue; then drop the mailbox backlog (a crash loses
  // in-flight input the same way — but every routed tuple hit the WAL
  // before its enqueue, so the standby replays what the worker lost).
  s->alive.store(false, std::memory_order_release);
  s->queue.CloseNow();
  primary_.DropRoutePending(shard);
  if (s->worker.joinable()) s->worker.join();
  s->engine.reset();
  return Status::OK();
}

Result<size_t> ReplicatedShardedEngine::HealFailures() {
  size_t promoted = 0;
  for (size_t i = 0; i < primary_.shards_.size(); ++i) {
    if (primary_.shards_[i]->alive.load(std::memory_order_acquire)) continue;
    ESLEV_RETURN_NOT_OK(PromoteStandby(i));
    ++promoted;
  }
  return promoted;
}

Status ReplicatedShardedEngine::PromoteStandby(size_t shard) {
  if (shard >= primary_.shards_.size()) {
    return Status::Invalid("no shard " + std::to_string(shard));
  }
  ShardedEngine::Shard* s = primary_.shards_[shard].get();
  if (s->alive.load(std::memory_order_acquire)) {
    return Status::Invalid("shard " + std::to_string(shard) +
                           " is alive; nothing to promote");
  }
  StandbyShard* sb = standbys_[shard].get();
  if (sb == nullptr) {
    return Status::ExecutionError(
        "shard " + std::to_string(shard) +
        " has no standby (Checkpoint() provisions them)");
  }
  ESLEV_RETURN_NOT_OK(sb->health());
  const auto start = std::chrono::steady_clock::now();
  const uint64_t applied_before = sb->applied_lsn();

  // The cut: producers block on the WAL mutex for the whole promotion,
  // so the WAL end observed here is the promoted engine's exact history.
  std::lock_guard<std::mutex> wal_lock(primary_.wal_mu_);
  if (primary_.front_.wal() == nullptr) {
    return Status::Invalid("replication requires the front-end WAL");
  }
  ESLEV_ASSIGN_OR_RETURN(const uint64_t wal_end, primary_.front_.FlushWal());
  ESLEV_RETURN_NOT_OK(shipper_->Ship());
  ESLEV_RETURN_NOT_OK(sb->Apply(standby_wal_path_));
  if (sb->applied_lsn() != wal_end) {
    // Short of the cut with nothing left to ship: records are missing
    // (corruption already sets sticky health above). Refuse rather than
    // promote a diverged replica.
    return Status::ExecutionError(
        "standby for shard " + std::to_string(shard) + " stopped at lsn " +
        std::to_string(sb->applied_lsn()) + " of " + std::to_string(wal_end) +
        "; refusing promotion");
  }
  // Align active expiration with the fanned low watermark. Normally a
  // no-op: every fan-out is also a logged heartbeat the standby applied.
  ESLEV_RETURN_NOT_OK(sb->AlignClock(primary_.low_watermark()));

  // Everything the dead worker delivered into the outbox is counted in
  // received_per_sub; the standby re-generated all of it, so emissions
  // at or below those counts are duplicates and everything above is
  // exactly the lost suffix.
  std::vector<uint64_t> delivered;
  {
    std::lock_guard<std::mutex> out_lock(s->out_mu);
    delivered = s->received_per_sub;
  }
  std::vector<ReplicaEmission> pending = sb->TakeBufferedAfter(delivered);
  sb->RedirectEmissions(
      [s](size_t sub, const Tuple& tuple) { s->Deliver(sub, tuple); });
  const uint64_t caught_up = sb->applied_lsn() - applied_before;
  s->engine = sb->TakeEngine();
  for (ReplicaEmission& e : pending) s->Deliver(e.sub, std::move(e.tuple));
  s->queue.Reopen();
  s->alive.store(true, std::memory_order_release);
  s->worker = std::thread([this, s] { primary_.WorkerLoop(s); });
  standbys_[shard].reset();  // spent; the next Checkpoint builds a new one

  promotions_.fetch_add(1, std::memory_order_relaxed);
  promotion_catchup_records_.fetch_add(caught_up, std::memory_order_relaxed);
  last_promotion_duration_us_.store(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count(),
      std::memory_order_relaxed);
  return Status::OK();
}

// ---- observability ---------------------------------------------------------

bool ReplicatedShardedEngine::shard_alive(size_t shard) const {
  return shard < primary_.shards_.size() &&
         primary_.shards_[shard]->alive.load(std::memory_order_acquire);
}

const StandbyShard* ReplicatedShardedEngine::standby(size_t shard) const {
  return shard < standbys_.size() ? standbys_[shard].get() : nullptr;
}

void ReplicatedShardedEngine::AppendReplicationMetrics(MetricsSnapshot* snap) {
  snap->counters["replication.segments_shipped"] =
      shipper_->segments_shipped();
  snap->counters["replication.bytes_shipped"] = shipper_->bytes_shipped();
  snap->counters["replication.ship_rounds"] = shipper_->ship_rounds();
  snap->counters["replication.promotions"] =
      promotions_.load(std::memory_order_relaxed);
  snap->counters["replication.promotion_catchup_records"] =
      promotion_catchup_records_.load(std::memory_order_relaxed);
  snap->gauges["replication.last_promotion_us"] =
      last_promotion_duration_us_.load(std::memory_order_relaxed);
  if (Result<uint64_t> lag = shipper_->MeasureLagBytes(); lag.ok()) {
    snap->gauges["replication.ship_lag_bytes"] = static_cast<int64_t>(*lag);
  }
  uint64_t wal_end = 0;
  {
    std::lock_guard<std::mutex> wal_lock(primary_.wal_mu_);
    if (WalWriter* wal = primary_.front_.wal(); wal != nullptr) {
      wal_end = wal->next_lsn() - 1;
    }
  }
  const Timestamp low = primary_.low_watermark();
  int64_t standbys = 0;
  int64_t dead = 0;
  for (size_t i = 0; i < standbys_.size(); ++i) {
    if (!primary_.shards_[i]->alive.load(std::memory_order_acquire)) ++dead;
    const StandbyShard* sb = standbys_[i].get();
    if (sb == nullptr) continue;
    ++standbys;
    const std::string prefix =
        "replication.standby" + std::to_string(i) + ".";
    snap->gauges[prefix + "applied_lsn"] =
        static_cast<int64_t>(sb->applied_lsn());
    snap->gauges[prefix + "apply_lag_lsn"] = static_cast<int64_t>(
        wal_end > sb->applied_lsn() ? wal_end - sb->applied_lsn() : 0);
    snap->gauges[prefix + "apply_lag_watermark"] = static_cast<int64_t>(
        low > sb->applied_watermark() ? low - sb->applied_watermark() : 0);
    snap->gauges[prefix + "healthy"] = sb->health().ok() ? 1 : 0;
    snap->gauges[prefix + "buffered_emissions"] =
        static_cast<int64_t>(sb->buffered_emissions());
  }
  snap->gauges["replication.standbys"] = standbys;
  snap->gauges["replication.dead_shards"] = dead;
}

Result<MetricsSnapshot> ReplicatedShardedEngine::Metrics() {
  ESLEV_ASSIGN_OR_RETURN(MetricsSnapshot snap, primary_.Metrics());
  AppendReplicationMetrics(&snap);
  return snap;
}

}  // namespace eslev
