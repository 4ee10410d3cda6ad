#include "replication/standby.h"

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <utility>

#include "recovery/checkpoint.h"
#include "recovery/codec.h"
#include "stream/stream.h"

namespace eslev {

StandbyShard::StandbyShard(StandbyShardOptions options)
    : options_(std::move(options)), sink_(std::make_shared<Sink>()) {
  engine_ = std::make_unique<Engine>(options_.engine);
}

Status StandbyShard::ExecuteScript(const std::string& sql) {
  return engine_->ExecuteScript(sql);
}

Status StandbyShard::RegisterQuery(const std::string& sql) {
  return engine_->RegisterQuery(sql).status();
}

Status StandbyShard::Subscribe(const std::string& stream) {
  const size_t sub_id = subscriptions_;
  Stream* s = engine_->FindStream(stream);
  if (s == nullptr) {
    return Status::NotFound("stream not found: " + stream);
  }
  // `seq` is read inside the callback, after Stream::Push has counted
  // the tuple — so it equals the stream's lifetime push count, the same
  // quantity the primary's received_per_sub converges to per delivery.
  ESLEV_RETURN_NOT_OK(engine_->Subscribe(
      stream, [sink = sink_, sub_id, s](const Tuple& tuple) {
        std::lock_guard<std::mutex> lock(sink->mu);
        if (sink->redirect) {
          sink->redirect(sub_id, tuple);
        } else {
          sink->buffer.push_back({sub_id, s->tuples_pushed(), tuple});
        }
      }));
  ++subscriptions_;
  return Status::OK();
}

Status StandbyShard::Bootstrap(const std::string& checkpoint_dir) {
  ESLEV_ASSIGN_OR_RETURN(ShardedManifest manifest,
                         ReadManifest(checkpoint_dir));
  if (manifest.num_shards != options_.routing.num_shards) {
    return Status::IoError(
        "shipped checkpoint was taken with " +
        std::to_string(manifest.num_shards) + " shards but this standby "
        "mirrors a " + std::to_string(options_.routing.num_shards) +
        "-shard engine");
  }
  if (options_.shard_id >= manifest.shard_dirs.size()) {
    return Status::IoError("shipped checkpoint has no shard " +
                           std::to_string(options_.shard_id));
  }
  ESLEV_RETURN_NOT_OK(engine_->Restore(
      checkpoint_dir + "/" + manifest.shard_dirs[options_.shard_id]));
  applied_lsn_ = manifest.wal_last_lsn;
  applied_watermark_ = manifest.low_watermark;
  // Restart the applier; records at or below the covered LSN are skipped.
  last_applied_segment_id_ = 0;
  live_offset_ = 0;
  return Status::OK();
}

Status StandbyShard::Fail(Status status) {
  if (health_.ok()) health_ = status;
  return health_;
}

Status StandbyShard::ApplyRecord(const WalRecord& record) {
  if (record.lsn <= applied_lsn_) return Status::OK();  // already applied
  if (record.lsn != applied_lsn_ + 1) {
    // Front-end LSNs are dense, so a jump means a shipped record is
    // missing. Applying past the hole would silently diverge; fail for
    // good so promotion refuses this standby.
    return Fail(Status::IoError(
        "WAL gap in shipped chain: expected lsn " +
        std::to_string(applied_lsn_ + 1) + ", got " +
        std::to_string(record.lsn)));
  }
  // WAL order is the shard's serialization order: apply exactly as the
  // shard worker applies its queue.
  Status st;
  if (record.kind == WalRecordKind::kHeartbeat) {
    st = ApplyShardHeartbeat(*engine_, record.ts);
    applied_watermark_ = std::max(applied_watermark_, record.ts);
  } else {
    const ShardRouting& routing = options_.routing;
    const StreamRoute* route = routing.Find(record.stream);
    if (route == nullptr) {
      return Fail(Status::IoError("shipped WAL names stream '" +
                                  record.stream + "' with no route"));
    }
    const Tuple& tuple = *record.tuple;
    Status key = routing.CheckKey(*route, tuple);
    if (!key.ok()) return Fail(Status::IoError("shipped " + key.message()));
    if (routing.ShardOf(*route, tuple) == options_.shard_id) {
      st = ApplyShardTuple(*engine_, record.stream, tuple);
    }
  }
  if (!st.ok()) return Fail(st);
  applied_lsn_ = record.lsn;
  ++records_applied_;
  return Status::OK();
}

Status StandbyShard::Apply(const std::string& wal_path) {
  if (!health_.ok()) return health_;
  Result<WalManifest> manifest = ReadWalManifest(wal_path);
  if (!manifest.ok()) return Fail(manifest.status());

  for (const WalSegmentInfo& seg : manifest->segments) {
    if (seg.id <= last_applied_segment_id_) continue;
    Result<WalReadResult> read = ReadSealedSegment(wal_path, seg);
    if (!read.ok()) return Fail(read.status());
    for (const WalRecord& record : read->records) {
      ESLEV_RETURN_NOT_OK(ApplyRecord(record));
    }
    last_applied_segment_id_ = seg.id;
    live_offset_ = 0;  // the shipper restarted the live copy at the seal
  }

  std::error_code ec;
  if (!std::filesystem::exists(wal_path, ec)) return Status::OK();
  Result<std::string> bytes = ReadFileAll(wal_path);
  if (!bytes.ok()) return Fail(bytes.status());
  if (bytes->size() < live_offset_) live_offset_ = 0;  // copy restarted
  Result<WalReadResult> live = DecodeWalFrames(bytes->data() + live_offset_,
                                               bytes->size() - live_offset_);
  if (!live.ok()) return Fail(live.status());
  // A torn tail here is a ship in progress, not corruption: apply the
  // complete frames and pick the rest up next round.
  for (const WalRecord& record : live->records) {
    ESLEV_RETURN_NOT_OK(ApplyRecord(record));
  }
  live_offset_ += live->valid_bytes;
  return Status::OK();
}

void StandbyShard::AckDelivered(size_t sub, uint64_t delivered) {
  std::lock_guard<std::mutex> lock(sink_->mu);
  auto& buffer = sink_->buffer;
  buffer.erase(std::remove_if(buffer.begin(), buffer.end(),
                              [sub, delivered](const ReplicaEmission& e) {
                                return e.sub == sub && e.seq <= delivered;
                              }),
               buffer.end());
}

Status StandbyShard::AlignClock(Timestamp low) {
  Status st = ApplyShardHeartbeat(*engine_, low);
  if (!st.ok()) return Fail(st);
  return Status::OK();
}

std::vector<ReplicaEmission> StandbyShard::TakeBufferedAfter(
    const std::vector<uint64_t>& delivered) {
  std::lock_guard<std::mutex> lock(sink_->mu);
  std::vector<ReplicaEmission> pending;
  for (ReplicaEmission& e : sink_->buffer) {
    const uint64_t threshold = e.sub < delivered.size() ? delivered[e.sub] : 0;
    if (e.seq > threshold) pending.push_back(std::move(e));
  }
  sink_->buffer.clear();
  return pending;
}

void StandbyShard::RedirectEmissions(
    std::function<void(size_t, const Tuple&)> sink) {
  std::lock_guard<std::mutex> lock(sink_->mu);
  sink_->redirect = std::move(sink);
}

std::unique_ptr<Engine> StandbyShard::TakeEngine() {
  return std::move(engine_);
}

size_t StandbyShard::buffered_emissions() const {
  std::lock_guard<std::mutex> lock(sink_->mu);
  return sink_->buffer.size();
}

}  // namespace eslev
