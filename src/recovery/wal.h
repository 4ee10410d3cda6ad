// Event write-ahead log (DESIGN.md §10): an append-only sequence of
// CRC32-framed records, one per input tuple or heartbeat, in arrival
// order. Appends are buffered and flushed in group commits; a crash can
// tear at most the buffered suffix, which the frame scanner recognizes
// as a torn tail and discards.
//
// Each record is one frame (recovery/codec.h) whose payload is:
//
//   [u8 kind][u64 lsn][string stream]
//   kind == kTuple:     [tuple]        (schema inline, self-contained)
//   kind == kHeartbeat: [i64 ts]
//
// Heartbeats are engine-wide: their stream name is always empty, and the
// decoder refuses a heartbeat frame that names a stream.
//
// The writer encodes each frame in place at the end of its group-commit
// buffer and patches the length and CRC once the payload is written; a
// warm writer appends without allocating.
//
// LSNs are assigned by the writer, strictly increasing, and never reused:
// after a checkpoint at LSN n, replay skips records with lsn <= n.
//
// Segment rotation (DESIGN.md §12): with `WalOptions::segment_bytes` set,
// the live file at `path` is sealed once it reaches the threshold — it is
// renamed to `path.<id>.seg` and recorded in a manifest sidecar at
// `path.segments` (header frame + body frame listing every sealed
// segment's id, file name, LSN range, and byte size). Sealed segments are
// immutable, which is what makes them safe to ship to a standby while the
// primary keeps appending, and lets checkpoint-driven truncation delete
// whole files instead of rewriting the retained log. A crash between the
// rename and the manifest write leaves an orphan `path.<id>.seg`; readers
// and the writer adopt such orphans by scanning forward from the
// manifest's next id, so the chain self-heals.

#ifndef ESLEV_RECOVERY_WAL_H_
#define ESLEV_RECOVERY_WAL_H_

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "recovery/codec.h"
#include "types/tuple.h"

namespace eslev {

enum class WalRecordKind : uint8_t {
  kTuple = 1,
  kHeartbeat = 2,
};

/// \brief One logged input event.
struct WalRecord {
  WalRecordKind kind = WalRecordKind::kTuple;
  uint64_t lsn = 0;
  std::string stream;               // empty for heartbeats
  std::optional<Tuple> tuple;       // set iff kind == kTuple
  Timestamp ts = 0;                 // set iff kind == kHeartbeat
};

struct WalOptions {
  /// Appends accumulate in memory and hit the file once this many bytes
  /// are pending (one group commit). 0 flushes on every append.
  size_t group_commit_bytes = 16 * 1024;
  /// When set, the existing file is truncated to this length before the
  /// writer opens it for append — used after a torn-tail scan so stale
  /// bytes past the tear can never be misread as frames later.
  std::optional<size_t> truncate_to_bytes;
  /// Seal the live file into an immutable `path.<id>.seg` segment once
  /// its flushed size reaches this many bytes. 0 never rotates (single
  /// live file, the pre-replication layout).
  size_t segment_bytes = 0;
};

/// \brief One sealed, immutable WAL segment as recorded in the manifest.
struct WalSegmentInfo {
  uint64_t id = 0;          // monotone; file name carries it
  std::string file;         // base name, lives next to the live file
  uint64_t first_lsn = 0;
  uint64_t last_lsn = 0;
  uint64_t bytes = 0;       // exact file size; a mismatch is corruption
};

/// \brief The manifest sidecar: every live sealed segment in LSN order,
/// plus the id the next seal will use (which is how orphan segments from
/// a crash between rename and manifest write are found).
struct WalManifest {
  uint64_t next_segment_id = 1;
  std::vector<WalSegmentInfo> segments;
};

/// \brief `path.segments` — where the manifest for WAL `path` lives.
std::string WalManifestPath(const std::string& wal_path);

/// \brief Full path of a sealed segment (same directory as the live file).
std::string WalSegmentPath(const std::string& wal_path,
                           const WalSegmentInfo& segment);

/// \brief Read `path.segments`. A missing manifest yields the empty
/// default (a WAL that never rotated is a valid chain of one live file).
Result<WalManifest> ReadWalManifest(const std::string& wal_path);

/// \brief Atomically write `path.segments`.
Status WriteWalManifest(const std::string& wal_path,
                        const WalManifest& manifest);

/// \brief Read the manifest and adopt any orphan `path.<id>.seg` files
/// (sealed but not yet recorded when the writer crashed): their LSN range
/// and size are recovered from the file itself. Purely in-memory; the
/// writer persists the healed manifest at Open.
Result<WalManifest> ListWalSegments(const std::string& wal_path);

/// \brief Result of reading a WAL file front to back.
struct WalReadResult {
  std::vector<WalRecord> records;
  /// Byte offset just past the last good frame (== file size when clean).
  size_t valid_bytes = 0;
  /// True when the file ends in a torn frame (crash mid-append).
  bool torn_tail = false;
};

/// \brief Read every intact record of `path`. A missing file yields an
/// empty clean result (a WAL that was never written is a valid WAL).
/// Mid-file corruption — a bad frame with data after it — is an IoError.
Result<WalReadResult> ReadWal(const std::string& path);

/// \brief Read the sealed segment `segment` of WAL `wal_path` and check
/// it against its manifest entry: the file exists, ends in no torn frame,
/// holds records, and has the recorded size and LSN range. A sealed
/// segment was complete when renamed into place, so any mismatch is
/// corruption, never a crash tail. When `bytes` is set it receives the
/// file as read (the shipper copies exactly what it checked).
Result<WalReadResult> ReadSealedSegment(const std::string& wal_path,
                                        const WalSegmentInfo& segment,
                                        std::string* bytes = nullptr);

/// \brief Decode WAL frames from an in-memory byte range — a shipped
/// live-tail slice starting at a frame boundary. Same torn-tail /
/// mid-range corruption semantics as ReadWal.
Result<WalReadResult> DecodeWalFrames(const char* data, size_t size);

/// \brief Result of reading a whole segmented WAL chain.
struct WalChainReadResult {
  std::vector<WalRecord> records;   // sealed segments then live, LSN order
  WalManifest manifest;             // including adopted orphans
  /// Valid prefix / torn-tail state of the *live* file only. A torn tail
  /// is legal there and only there: sealed segments were complete when
  /// renamed, so a tear inside one is corruption, not a crash artifact.
  size_t live_valid_bytes = 0;
  bool live_torn_tail = false;
};

/// \brief Read sealed segments (manifest + orphans) then the live file,
/// validating each sealed segment is clean, matches its manifest entry,
/// and that LSNs increase strictly across the whole chain.
Result<WalChainReadResult> ReadWalChain(const std::string& path);

/// \brief Buffered appender. Not thread-safe; callers serialize (the
/// engines hold their own mutex around append + enqueue so WAL order
/// matches processing order).
class WalWriter {
 public:
  /// Opens `path` for append (creating it if absent), honoring
  /// `options.truncate_to_bytes` first. `next_lsn` is the LSN the next
  /// appended record receives; recovery passes last-read LSN + 1. With
  /// rotation enabled this also heals the manifest (orphan adoption).
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 uint64_t next_lsn,
                                                 const WalOptions& options = {});

  ~WalWriter();  // best-effort flush

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// \brief Log an input tuple; returns the LSN it was assigned.
  Result<uint64_t> AppendTuple(const std::string& stream, const Tuple& tuple);
  /// \brief Log an engine-wide time advancement; returns the LSN it was
  /// assigned.
  Result<uint64_t> AppendHeartbeat(Timestamp ts);

  /// \brief Force the pending group commit to the file (and seal the live
  /// segment if it crossed the rotation threshold).
  Status Flush();

  /// \brief Checkpoint-driven truncation: delete sealed segments whose
  /// every record has lsn < `lsn`. The live file is never rewritten —
  /// records it holds below `lsn` are skipped at replay instead — so
  /// truncation cost is proportional to the number of dropped segments,
  /// not the size of the retained log. Flushes first.
  Status TruncateBefore(uint64_t lsn);

  /// \brief Flush, then seal the live file into a segment even if it is
  /// below the rotation threshold (no-op when it holds no records).
  /// Lets a shipper hand off a complete immutable file on demand.
  Status SealActiveSegment();

  const std::string& path() const { return path_; }
  uint64_t next_lsn() const { return next_lsn_; }

  /// Sealed segments still on disk, oldest first.
  const std::vector<WalSegmentInfo>& sealed_segments() const {
    return manifest_.segments;
  }
  /// Flushed bytes currently in the live file.
  uint64_t live_bytes() const { return live_bytes_; }

  // Counters for MetricsRegistry ("wal." family).
  uint64_t records_appended() const { return records_appended_; }
  uint64_t group_commits() const { return group_commits_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t segments_sealed() const { return segments_sealed_; }
  uint64_t segments_deleted() const { return segments_deleted_; }

 private:
  WalWriter(std::string path, uint64_t next_lsn, WalOptions options)
      : path_(std::move(path)), next_lsn_(next_lsn), options_(options) {}

  /// Start a v1 record frame in `pending_`: a header placeholder, then
  /// kind, the next LSN and the stream. Returns the frame's offset.
  size_t BeginRecord(WalRecordKind kind, const std::string& stream);
  /// Patch the frame header's length and CRC, assign the LSN, and group
  /// commit once enough bytes are pending.
  Result<uint64_t> EndRecord(size_t frame);
  Status ReopenForAppend();
  Status SealLive();

  std::string path_;
  uint64_t next_lsn_;
  WalOptions options_;
  std::FILE* file_ = nullptr;
  // Frames awaiting group commit, encoded in place; Clear() after each
  // commit keeps the capacity, so appends stop allocating once warm.
  BinaryEncoder pending_;

  WalManifest manifest_;
  uint64_t live_bytes_ = 0;      // flushed bytes in the live file
  uint64_t live_first_lsn_ = 0;  // 0 while the live file holds no records

  uint64_t records_appended_ = 0;
  uint64_t group_commits_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t segments_sealed_ = 0;
  uint64_t segments_deleted_ = 0;
};

}  // namespace eslev

#endif  // ESLEV_RECOVERY_WAL_H_
