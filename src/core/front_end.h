// The input front end (DESIGN.md §10, §15): everything a host does with
// an input before it reaches a pipeline. `Engine` and the
// `ShardedEngine` coordinator each own one; `Engine` hands what it
// releases to a Stream, the coordinator routes it to a shard. One copy
// of each rule:
//
//   Log first     A raw tuple or tick goes to the WAL before ingest or a
//                 pipeline sees it. Replay says "do not log" explicitly.
//   Port binding  A source stream gets its ingest port on its first
//                 offer; the port is cached with the host's stream handle,
//                 so an offer does no name lookup, and releases come back
//                 with that handle. A port whose stream is gone (dropped by
//                 UnregisterQuery, or missing from a restored topology)
//                 stays unbound, and only a release on it is an error.
//   WAL open      Read the chain, count a torn live tail, truncate to the
//                 valid prefix, continue at max(last LSN, restored LSN)+1.
//   Replay        Skip records at or below the restored LSN; a tuple
//                 re-enters through the host's offer path and a tick
//                 through its tick path, both unlogged.
//   Repeated tick A tick equal to the last tick passed on is dropped,
//                 neither logged nor delivered, live or replayed.
//
// The module takes no lock. A host that is called from several threads
// serializes every call itself (the coordinator holds its WAL mutex
// across a logged call and its ingest mutex around each pipeline call);
// the last tick is atomic, because a coordinator with neither a WAL nor
// ingest passes its producers' ticks on without a lock.
//
// A host `H` with stream handle `T*` provides, to its FrontEnd<H, T>:
//   Status Offer(const std::string& stream, const Tuple&, bool log);
//   Status Tick(Timestamp now, bool log);
//   Status DeliverTuple(T*, Tuple or const Tuple&);  // releases are moved
//   Status DeliverHeartbeat(Timestamp now);
// Offer and Tick are the host's input paths, which replay re-enters;
// DeliverTuple and DeliverHeartbeat take ordered input into pipelines.

#ifndef ESLEV_CORE_FRONT_END_H_
#define ESLEV_CORE_FRONT_END_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/time.h"
#include "ingest/ingest_pipeline.h"
#include "recovery/wal.h"

namespace eslev {

/// \brief Outcome of a WAL replay.
struct ReplayStats {
  uint64_t records_replayed = 0;
  /// Records at or below the checkpoint's covered LSN (already folded
  /// into the restored state).
  uint64_t records_skipped = 0;
  /// The WAL ended in a torn frame (crash mid-append) that was dropped.
  bool torn_tail = false;
};

/// \brief The handle-free half of FrontEnd: the ingest pipeline, the WAL
/// and their counters.
class FrontEndBase {
 public:
  /// \brief The validated ingest options (defaults when invalid).
  const IngestOptions& ingest_options() const { return ingest_options_; }
  /// \brief An invalid ingest option, surfaced by the host's first call.
  const Status& init_status() const { return init_status_; }
  bool ingest_enabled() const { return ingest_ != nullptr; }
  const IngestPipeline* ingest() const { return ingest_.get(); }
  WalWriter* wal() const { return wal_.get(); }

  /// \brief Read the WAL chain at `path`, counting a torn live tail.
  Result<WalChainReadResult> ReadWal(const std::string& path);
  /// \brief Open the WAL at `path` for appends after `read` (its chain):
  /// truncate the live file to its valid prefix and continue at
  /// max(last LSN, restored LSN) + 1.
  Status OpenWal(const std::string& path, WalOptions options,
                 const WalChainReadResult& read);
  /// \brief ReadWal then OpenWal; an error when a WAL is already open.
  Status EnableWal(const std::string& path, WalOptions options);
  /// \brief Flush the WAL and return its last LSN, the one a checkpoint
  /// taken now covers (0 without a WAL).
  Result<uint64_t> FlushWal();
  /// \brief Drop WAL records below `lsn`, which a checkpoint covers
  /// (nothing without a WAL).
  Status TruncateWalBefore(uint64_t lsn);
  /// \brief The last LSN the restored checkpoint covers.
  void set_restored_lsn(uint64_t lsn) { restored_lsn_ = lsn; }

  /// \brief The ingest pipeline's state blob; ingest must be on.
  Status SaveIngestState(BinaryEncoder* enc) const {
    return ingest_->SaveState(enc);
  }

  /// \brief The `ingest.*` and `wal.*` families plus
  /// `recovery.wal_records_replayed` and `recovery_truncated_frames`.
  void AppendMetrics(MetricsSnapshot* snap) const;

 protected:
  explicit FrontEndBase(const IngestOptions& options);

  IngestOptions ingest_options_;
  Status init_status_;
  std::unique_ptr<IngestPipeline> ingest_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t restored_lsn_ = 0;
  uint64_t records_replayed_ = 0;
  uint64_t truncated_frames_ = 0;
  std::atomic<Timestamp> last_tick_{kMinTimestamp};  // last tick passed on
};

/// \brief One host's input front end: the rules of the file comment over
/// the host's stream handle `Target*`.
template <typename Host, typename Target>
class FrontEnd : public FrontEndBase {
 public:
  FrontEnd(Host* host, const IngestOptions& options)
      : FrontEndBase(options), host_(host) {
    if (ingest_ == nullptr) return;
    ingest_->BindDelivery(
        [this](size_t port, Tuple tuple) {
          Target* target = port < targets_.size() ? targets_[port] : nullptr;
          if (target == nullptr) {
            return Status::ExecutionError(
                "ingest released a tuple on an unbound port (its stream '" +
                ingest_->port_name(port) + "' no longer exists)");
          }
          return host_->DeliverTuple(target, std::move(tuple));
        },
        [this](Timestamp now) { return host_->DeliverHeartbeat(now); });
  }

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// \brief The one input path: log the raw tuple first when `log`, then
  /// offer it to ingest, or hand it to the host when ingest is off.
  Status Push(Target* target, const std::string& stream, const Tuple& tuple,
              bool log) {
    if (log && wal_ != nullptr) {
      ESLEV_ASSIGN_OR_RETURN(uint64_t lsn, wal_->AppendTuple(stream, tuple));
      (void)lsn;
    }
    if (ingest_ == nullptr) return host_->DeliverTuple(target, tuple);
    return ingest_->Offer(PortOf(target, stream), tuple);
  }

  /// \brief The one tick path: log the raw tick first when `log`, then
  /// drive the ingest frontiers, or hand it to the host when ingest is
  /// off. Ingest hands the host its held-back frontier once no in-bound
  /// arrival can precede it. A repeat of the last tick passed on is
  /// dropped, neither logged nor delivered; replay passes ticks on here
  /// too, so a recovered host drops a repeat of its last replayed tick.
  Status Tick(Timestamp now, bool log) {
    // Relaxed: live ticks that race come from the coordinator's
    // watermark, which never hands two callers the same time.
    if (last_tick_.load(std::memory_order_relaxed) == now) {
      return Status::OK();
    }
    last_tick_.store(now, std::memory_order_relaxed);
    if (log && wal_ != nullptr) {
      ESLEV_ASSIGN_OR_RETURN(uint64_t lsn, wal_->AppendHeartbeat(now));
      (void)lsn;
    }
    if (ingest_ == nullptr) return host_->DeliverHeartbeat(now);
    return ingest_->Heartbeat(now);
  }

  /// \brief Re-drive the records of `read` (ReadWal) through the host's
  /// unlogged offer and tick paths, skipping those the restored
  /// checkpoint covers.
  Result<ReplayStats> Replay(const WalChainReadResult& read) {
    ReplayStats stats;
    stats.torn_tail = read.live_torn_tail;
    for (const WalRecord& record : read.records) {
      if (record.lsn <= restored_lsn_) {
        ++stats.records_skipped;
        continue;
      }
      ESLEV_RETURN_NOT_OK(
          record.kind == WalRecordKind::kTuple
              ? host_->Offer(record.stream, *record.tuple, /*log=*/false)
              : host_->Tick(record.ts, /*log=*/false));
      ++stats.records_replayed;
    }
    records_replayed_ += stats.records_replayed;
    return stats;
  }

  /// \brief Bind every port to `find(stream key)`; a port whose stream is
  /// gone (`find` returns null) stays unbound. Call after the host drops
  /// a stream.
  template <typename FindFn>
  void RebindPorts(FindFn&& find) {
    if (ingest_ == nullptr) return;
    targets_.assign(ingest_->num_ports(), nullptr);
    for (size_t port = 0; port < targets_.size(); ++port) {
      targets_[port] = find(ingest_->port_name(port));
    }
  }

  /// \brief Load a SaveIngestState blob, then rebind its ports.
  template <typename FindFn>
  Status RestoreIngestState(const std::string& blob, FindFn&& find) {
    BinaryDecoder dec(blob);
    ESLEV_RETURN_NOT_OK(ingest_->RestoreState(&dec));
    if (!dec.AtEnd()) return Status::IoError("ingest: trailing state bytes");
    RebindPorts(find);
    return Status::OK();
  }

 private:
  /// The port bound to `target`, binding the stream on its first offer.
  /// Hosts feed a handful of source streams, so a scan beats a map.
  size_t PortOf(Target* target, const std::string& stream) {
    for (size_t port = 0; port < targets_.size(); ++port) {
      if (targets_[port] == target) return port;
    }
    const size_t port = ingest_->PortFor(AsciiToLower(stream));
    if (port >= targets_.size()) targets_.resize(port + 1, nullptr);
    targets_[port] = target;
    return port;
  }

  Host* host_;
  std::vector<Target*> targets_;  // by ingest port; null = unbound
};

}  // namespace eslev

#endif  // ESLEV_CORE_FRONT_END_H_
