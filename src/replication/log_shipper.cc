#include "replication/log_shipper.h"

#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "recovery/codec.h"

namespace eslev {

namespace {

uint64_t FileSizeOrZero(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

/// Read bytes [offset, offset + count) of `path`. The primary appends
/// concurrently; a single POSIX writer appends sequentially, so any
/// prefix up to an observed size is consistent (at worst mid-frame,
/// which the standby treats as a torn tail until the rest arrives).
Result<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                  uint64_t count) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path + " for shipping");
  }
  std::string bytes(count, '\0');
  size_t got = 0;
  if (std::fseek(file, static_cast<long>(offset), SEEK_SET) == 0) {
    got = std::fread(bytes.data(), 1, count, file);
  }
  std::fclose(file);
  bytes.resize(got);
  return bytes;
}

Status AppendFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IoError("cannot open standby live copy " + path);
  }
  const size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool flushed = std::fflush(file) == 0;
  std::fclose(file);
  if (wrote != bytes.size() || !flushed) {
    return Status::IoError("short write to standby live copy " + path);
  }
  return Status::OK();
}

}  // namespace

LogShipper::LogShipper(std::string primary_wal_path,
                       std::string standby_wal_path)
    : primary_path_(std::move(primary_wal_path)),
      standby_path_(std::move(standby_wal_path)) {}

Status LogShipper::Init() {
  if (initialized_) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(standby_path_).parent_path(), ec);
  ESLEV_ASSIGN_OR_RETURN(standby_manifest_, ReadWalManifest(standby_path_));
  last_shipped_segment_id_ = standby_manifest_.next_segment_id - 1;
  // Restart the live copy: its bytes correspond to an unknown primary
  // offset after a shipper restart, so re-ship the whole live tail (the
  // applier skips records it already applied by LSN).
  ESLEV_RETURN_NOT_OK(WriteFileAtomic(standby_path_, ""));
  live_offset_ = 0;
  initialized_ = true;
  return Status::OK();
}

Status LogShipper::Ship() {
  ESLEV_RETURN_NOT_OK(Init());
  ESLEV_ASSIGN_OR_RETURN(WalManifest primary, ListWalSegments(primary_path_));

  bool sealed_new = false;
  for (const WalSegmentInfo& seg : primary.segments) {
    if (seg.id <= last_shipped_segment_id_) continue;
    // Verify the segment against its manifest entry before the copy: a
    // corrupt primary segment fails the ship here instead of poisoning
    // the standby chain.
    std::string bytes;
    ESLEV_RETURN_NOT_OK(ReadSealedSegment(primary_path_, seg, &bytes).status());
    ESLEV_RETURN_NOT_OK(
        WriteFileAtomic(WalSegmentPath(standby_path_, seg), bytes));
    standby_manifest_.segments.push_back(seg);
    last_shipped_segment_id_ = seg.id;
    ++segments_shipped_;
    bytes_shipped_ += bytes.size();
    sealed_new = true;
  }
  if (sealed_new) {
    standby_manifest_.next_segment_id =
        std::max(standby_manifest_.next_segment_id,
                 last_shipped_segment_id_ + 1);
    ESLEV_RETURN_NOT_OK(WriteWalManifest(standby_path_, standby_manifest_));
    // Bytes shipped into the live copy so far are covered by the sealed
    // copies now; restart the live copy for the primary's new live file.
    ESLEV_RETURN_NOT_OK(WriteFileAtomic(standby_path_, ""));
    live_offset_ = 0;
  }

  const uint64_t live_size = FileSizeOrZero(primary_path_);
  if (live_size < live_offset_) {
    // The live file shrank: a rotation this round missed. Heal by
    // restarting the copy; the sealed segment arrives next round.
    ESLEV_RETURN_NOT_OK(WriteFileAtomic(standby_path_, ""));
    live_offset_ = 0;
    ++ship_rounds_;
    return Status::OK();
  }
  if (live_size > live_offset_) {
    ESLEV_ASSIGN_OR_RETURN(
        std::string bytes,
        ReadFileRange(primary_path_, live_offset_, live_size - live_offset_));
    // Rotation race check: if the primary sealed since we listed its
    // segments, the bytes just read belong to the NEW live file at a
    // different LSN position — discard them; the sealed segment carries
    // the old live's bytes next round. (The seal writes the manifest
    // before recreating the live file, so a changed next_segment_id is
    // visible before any new live byte exists.)
    ESLEV_ASSIGN_OR_RETURN(WalManifest after, ReadWalManifest(primary_path_));
    if (after.next_segment_id != primary.next_segment_id) {
      ++ship_rounds_;
      return Status::OK();
    }
    ESLEV_RETURN_NOT_OK(AppendFileBytes(standby_path_, bytes));
    bytes_shipped_ += bytes.size();
    live_offset_ += bytes.size();
  }
  ++ship_rounds_;
  return Status::OK();
}

Status LogShipper::PruneShippedBefore(uint64_t lsn) {
  ESLEV_RETURN_NOT_OK(Init());
  std::vector<WalSegmentInfo> keep;
  std::vector<WalSegmentInfo> drop;
  for (WalSegmentInfo& seg : standby_manifest_.segments) {
    (seg.last_lsn < lsn ? drop : keep).push_back(std::move(seg));
  }
  if (drop.empty()) {
    standby_manifest_.segments = std::move(keep);
    return Status::OK();
  }
  standby_manifest_.segments = std::move(keep);
  // Manifest first, files second: an interruption leaks segment files
  // (never re-adopted: orphan scans start at next_segment_id) but never
  // leaves a manifest entry pointing at a deleted file.
  ESLEV_RETURN_NOT_OK(WriteWalManifest(standby_path_, standby_manifest_));
  for (const WalSegmentInfo& seg : drop) {
    std::error_code ec;
    std::filesystem::remove(WalSegmentPath(standby_path_, seg), ec);
  }
  return Status::OK();
}

Result<uint64_t> LogShipper::MeasureLagBytes() const {
  ESLEV_ASSIGN_OR_RETURN(WalManifest primary, ListWalSegments(primary_path_));
  uint64_t lag = 0;
  for (const WalSegmentInfo& seg : primary.segments) {
    if (seg.id > last_shipped_segment_id_) lag += seg.bytes;
  }
  const uint64_t live_size = FileSizeOrZero(primary_path_);
  if (live_size > live_offset_) lag += live_size - live_offset_;
  return lag;
}

}  // namespace eslev
