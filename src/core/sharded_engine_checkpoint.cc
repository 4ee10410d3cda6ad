// ShardedEngine durability: coordinated checkpoint/restore and the
// front-end WAL (DESIGN.md §10).
//
// Checkpoint layout under `dir`:
//   MANIFEST            num_shards, low-watermark cut, covered WAL LSN,
//                       shard directory names (recovery/checkpoint.h)
//   shard<i>/engine.ckpt  per-shard Engine checkpoint, i == shard id
//   wal.log             front-end WAL (when enabled)
//
// Consistency: the front-end WAL is appended under `wal_mu_` together
// with the queue push, so the log's order is a linearization consistent
// with every shard's queue order. Checkpoint holds the same mutex for
// the whole cut: producers serialize entirely before or after it, the
// current low watermark is fanned to every shard (aligning active
// expiration at the cut), the queues drain, each shard engine writes its
// checkpoint on its own worker thread, and finally the WAL is truncated
// to the uncovered suffix. Replay re-routes the suffix through the same
// hash partitioning, which reproduces identical per-shard histories.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>

#include "core/sharded_engine.h"
#include "recovery/checkpoint.h"

namespace eslev {

namespace {

std::string ShardDirName(size_t shard) {
  return "shard" + std::to_string(shard);
}

// Front-end ingest pipeline state (reorder buffer, smoothing groups,
// held-back emissions): one CRC frame next to the MANIFEST.
constexpr const char* kIngestStateFileName = "ingest.state";

}  // namespace

Status ShardedEngine::Checkpoint(const std::string& dir) {
  const auto start = std::chrono::steady_clock::now();
  ESLEV_RETURN_NOT_OK(CheckAllAlive());
  // The cut: producers block on this mutex (WAL path) or must be paused
  // by the caller (no WAL) while the shards drain and snapshot.
  std::lock_guard<std::mutex> wal_lock(wal_mu_);

  // Quiesce barrier: align every shard at the current low watermark via
  // the existing heartbeat fan-out, then wait for the queues to empty
  // (Flush wakes every worker, so tuples queued without a wake-up are
  // covered too).
  // With front-end ingest the shards must align at the pipeline's last
  // RELEASED heartbeat instead — fanning the raw watermark would run
  // shard clocks past the held-back release frontier and clamp future
  // releases forward.
  const Timestamp low = watermark_.low_watermark();
  if (front_.ingest_enabled()) {
    const Timestamp fanned = ingest_fanned_hb_.load(std::memory_order_acquire);
    if (fanned != kMinTimestamp) FanHeartbeat(fanned);
  } else if (low != kMinTimestamp) {
    FanHeartbeat(low);
  }
  ESLEV_RETURN_NOT_OK(Flush());

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint dir " + dir + ": " +
                           ec.message());
  }

  ESLEV_ASSIGN_OR_RETURN(const uint64_t wal_last_lsn, front_.FlushWal());

  // Each shard engine checkpoints on its own worker thread (exclusive
  // engine access); all shards snapshot the same quiesced cut.
  ShardedManifest manifest;
  manifest.num_shards = static_cast<uint32_t>(shards_.size());
  manifest.low_watermark = low;
  manifest.wal_last_lsn = wal_last_lsn;
  for (size_t i = 0; i < shards_.size(); ++i) {
    manifest.shard_dirs.push_back(ShardDirName(i));
  }
  ESLEV_RETURN_NOT_OK(RunOnAllShards([&dir](size_t i, Engine& engine) {
    return engine.Checkpoint(dir + "/" + ShardDirName(i));
  }));

  if (front_.ingest_enabled()) {
    BinaryEncoder frame;
    frame.PutI64(ingest_fanned_hb_.load(std::memory_order_acquire));
    BinaryEncoder state;
    {
      std::lock_guard<std::mutex> ingest_lock(ingest_mu_);
      ESLEV_RETURN_NOT_OK(front_.SaveIngestState(&state));
    }
    frame.PutString(state.buffer());
    std::string bytes;
    AppendFrame(frame.buffer(), &bytes);
    ESLEV_RETURN_NOT_OK(
        WriteFileAtomic(dir + "/" + kIngestStateFileName, bytes));
  }

  ESLEV_RETURN_NOT_OK(WriteManifest(dir, manifest));
  // The manifest is durable; everything at or below wal_last_lsn is
  // covered by the shard checkpoints and can be dropped — except sealed
  // segments a replication standby has not consumed yet (the truncation
  // floor, a replication slot maintained by ReplicatedShardedEngine).
  const uint64_t floor = wal_truncate_floor_.load(std::memory_order_acquire);
  ESLEV_RETURN_NOT_OK(
      front_.TruncateWalBefore(std::min(wal_last_lsn + 1, floor)));

  uint64_t bytes = 0;
  const auto add_size = [&bytes](const std::string& path) {
    std::error_code size_ec;
    const auto size = std::filesystem::file_size(path, size_ec);
    if (!size_ec) bytes += static_cast<uint64_t>(size);
  };
  for (size_t i = 0; i < shards_.size(); ++i) {
    add_size(dir + "/" + ShardDirName(i) + "/" + kCheckpointFileName);
  }
  add_size(dir + "/" + kManifestFileName);
  if (front_.ingest_enabled()) add_size(dir + "/" + kIngestStateFileName);
  checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
  last_checkpoint_bytes_.store(bytes, std::memory_order_relaxed);
  last_checkpoint_duration_us_.store(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count(),
      std::memory_order_relaxed);
  return Status::OK();
}

Status ShardedEngine::Restore(const std::string& dir) {
  ESLEV_RETURN_NOT_OK(CheckAllAlive());
  ESLEV_ASSIGN_OR_RETURN(ShardedManifest manifest, ReadManifest(dir));
  if (manifest.num_shards != shards_.size()) {
    return Status::IoError(
        "checkpoint was taken with " + std::to_string(manifest.num_shards) +
        " shards but this engine has " + std::to_string(shards_.size()));
  }
  // Validate every shard checkpoint exists before touching any shard:
  // a manifest naming a missing file must not partially restore.
  for (const std::string& shard_dir : manifest.shard_dirs) {
    const std::string path =
        dir + "/" + shard_dir + "/" + kCheckpointFileName;
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec) {
      return Status::IoError("manifest names missing shard checkpoint: " +
                             path);
    }
  }
  ESLEV_RETURN_NOT_OK(Flush());
  ESLEV_RETURN_NOT_OK(RunOnAllShards([&](size_t i, Engine& engine) {
    return engine.Restore(dir + "/" + manifest.shard_dirs[i]);
  }));

  if (front_.ingest_enabled()) {
    const std::string path = dir + "/" + kIngestStateFileName;
    ESLEV_ASSIGN_OR_RETURN(std::string bytes, ReadFileAll(path));
    ESLEV_ASSIGN_OR_RETURN(FrameScanResult frames,
                           ScanFrames(bytes.data(), bytes.size()));
    if (frames.torn_tail || frames.payloads.size() != 1) {
      return Status::IoError("ingest state " + path + ": corrupt frame");
    }
    BinaryDecoder frame(frames.payloads[0]);
    ESLEV_ASSIGN_OR_RETURN(Timestamp fanned, frame.GetI64());
    ESLEV_ASSIGN_OR_RETURN(std::string blob, frame.GetString());
    if (!frame.AtEnd()) {
      return Status::IoError("ingest state " + path + ": trailing bytes");
    }
    // routes_mu_ before ingest_mu_ (the order Offer takes them).
    std::shared_lock<std::shared_mutex> routes_lock(routes_mu_);
    std::lock_guard<std::mutex> ingest_lock(ingest_mu_);
    ESLEV_RETURN_NOT_OK(front_.RestoreIngestState(
        blob, [this](const std::string& key) { return routing_.Find(key); }));
    ingest_fanned_hb_.store(fanned, std::memory_order_release);
  }

  front_.set_restored_lsn(manifest.wal_last_lsn);
  return Status::OK();
}

Status ShardedEngine::EnableWal(const std::string& path, WalOptions options) {
  ESLEV_RETURN_NOT_OK(init_error_);
  std::lock_guard<std::mutex> wal_lock(wal_mu_);
  ESLEV_RETURN_NOT_OK(front_.EnableWal(path, std::move(options)));
  wal_enabled_.store(true, std::memory_order_release);
  return Status::OK();
}

Status ShardedEngine::RecoverFrom(const std::string& dir,
                                  const ReplayOptions& options) {
  if (wal_enabled_.load(std::memory_order_acquire)) {
    return Status::Invalid("WAL already enabled before RecoverFrom");
  }
  if (!options.deliver_after.empty()) {
    return Status::Invalid(
        "per-stream deliver_after is not supported by ShardedEngine (per-"
        "shard outbox sequences are not a global consumer position); use "
        "deliver_callbacks");
  }
  ESLEV_RETURN_NOT_OK(Restore(dir));

  const std::string wal_path = dir + "/" + kWalFileName;
  ESLEV_ASSIGN_OR_RETURN(WalChainReadResult read, front_.ReadWal(wal_path));
  ESLEV_RETURN_NOT_OK(front_.Replay(read).status());
  ESLEV_RETURN_NOT_OK(Flush());

  // Replay regenerated the shard-side emissions into the outboxes; a
  // synchronous consumer already drained them before the crash, so the
  // default is to discard rather than re-deliver.
  if (!options.deliver_callbacks) {
    uint64_t discarded = 0;
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> out_lock(shard->out_mu);
      discarded += shard->outbox.size();
      shard->outbox.clear();
    }
    replay_outputs_discarded_.fetch_add(discarded, std::memory_order_relaxed);
  }

  std::lock_guard<std::mutex> wal_lock(wal_mu_);
  ESLEV_RETURN_NOT_OK(front_.OpenWal(wal_path, WalOptions{}, read));
  wal_enabled_.store(true, std::memory_order_release);
  return Status::OK();
}

}  // namespace eslev
