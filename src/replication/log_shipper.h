// LogShipper: copies a primary front-end WAL chain — sealed segments
// plus the live file's flushed tail — into a standby directory
// (DESIGN.md §12).
//
// Sealed segments are immutable, so shipping one is a verify-then-copy:
// the shipper checks it with ReadSealedSegment — every frame's CRC, and
// the size and LSN range its manifest entry records — before writing
// the standby copy (a corrupt primary segment fails the ship instead of
// propagating) and
// mirrors the manifest sidecar so the standby copy is itself a valid
// WAL chain that ReadWalChain / StandbyShard can consume. The live file
// is shipped as raw byte ranges appended to the standby's live copy; a
// torn frame at the end of a shipped range is completed by the next
// round, and the standby applier tolerates the interim tear exactly like
// crash recovery tolerates a torn tail.
//
// Rotation race: the primary seals under its own mutex while Ship() runs
// lock-free against the filesystem. A seal between listing the segments
// and reading the live file would make the read bytes belong to the NEW
// live file; the shipper detects this by re-reading the manifest's
// next_segment_id after the live read and discards the range when it
// moved (the sealed segment carries those bytes next round).

#ifndef ESLEV_REPLICATION_LOG_SHIPPER_H_
#define ESLEV_REPLICATION_LOG_SHIPPER_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "recovery/wal.h"

namespace eslev {

class LogShipper {
 public:
  /// Both paths name the WAL's *live* file; segments and the manifest
  /// live next to each in the same directory.
  LogShipper(std::string primary_wal_path, std::string standby_wal_path);

  /// \brief One shipping round: copy every sealed segment newer than the
  /// last shipped id (verifying it first), mirror the manifest,
  /// restart the standby live copy when a seal happened, then append the
  /// primary live file's new bytes. Idempotent; call as often as wanted.
  Status Ship();

  /// \brief Drop shipped sealed segments whose every record has
  /// lsn < `lsn` (the standby applied them); mirrors the primary's
  /// checkpoint-driven truncation on the standby copy.
  Status PruneShippedBefore(uint64_t lsn);

  /// \brief Primary bytes not yet shipped: unshipped sealed segments
  /// plus the unshipped live suffix. Reads the primary chain metadata.
  Result<uint64_t> MeasureLagBytes() const;

  // Counters for the "replication." metrics family.
  uint64_t segments_shipped() const { return segments_shipped_; }
  uint64_t bytes_shipped() const { return bytes_shipped_; }
  uint64_t ship_rounds() const { return ship_rounds_; }

 private:
  Status Init();  // lazy: loads standby-side state on first Ship()

  std::string primary_path_;
  std::string standby_path_;

  bool initialized_ = false;
  WalManifest standby_manifest_;
  uint64_t last_shipped_segment_id_ = 0;
  /// Primary live-file offset already appended to the standby live copy.
  uint64_t live_offset_ = 0;

  uint64_t segments_shipped_ = 0;
  uint64_t bytes_shipped_ = 0;
  uint64_t ship_rounds_ = 0;
};

}  // namespace eslev

#endif  // ESLEV_REPLICATION_LOG_SHIPPER_H_
