#include "recovery/wal.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "recovery/checkpoint.h"

namespace eslev {

namespace {

Result<WalRecord> DecodeRecord(const std::string& payload) {
  BinaryDecoder dec(payload);
  WalRecord record;
  ESLEV_ASSIGN_OR_RETURN(uint8_t kind, dec.GetU8());
  if (kind != static_cast<uint8_t>(WalRecordKind::kTuple) &&
      kind != static_cast<uint8_t>(WalRecordKind::kHeartbeat)) {
    return Status::IoError("bad WAL record kind " + std::to_string(kind));
  }
  record.kind = static_cast<WalRecordKind>(kind);
  ESLEV_ASSIGN_OR_RETURN(record.lsn, dec.GetU64());
  ESLEV_ASSIGN_OR_RETURN(record.stream, dec.GetString());
  if (record.kind == WalRecordKind::kTuple) {
    ESLEV_ASSIGN_OR_RETURN(Tuple t, dec.GetTuple());
    record.tuple = std::move(t);
  } else if (!record.stream.empty()) {
    return Status::IoError("WAL heartbeat names stream '" + record.stream +
                           "'; heartbeats are engine-wide");
  } else {
    ESLEV_ASSIGN_OR_RETURN(record.ts, dec.GetI64());
  }
  if (!dec.AtEnd()) {
    return Status::IoError("trailing bytes in WAL record payload");
  }
  return record;
}

std::string SegmentFileName(const std::string& wal_path, uint64_t id) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".%06" PRIu64 ".seg", id);
  return std::filesystem::path(wal_path).filename().string() + suffix;
}

std::uintmax_t FileSizeOrZero(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : n;
}

/// Read a sealed segment file that must exist and be complete: no torn
/// tail, at least one record. Orphan adoption derives a manifest entry
/// from what this returns; ReadSealedSegment checks it against one.
Result<WalReadResult> ReadCompleteSegment(const std::string& seg_path,
                                          std::string* bytes) {
  std::error_code ec;
  if (!std::filesystem::exists(seg_path, ec)) {
    return Status::IoError("missing sealed WAL segment: " + seg_path);
  }
  ESLEV_ASSIGN_OR_RETURN(*bytes, ReadFileAll(seg_path));
  ESLEV_ASSIGN_OR_RETURN(WalReadResult read,
                         DecodeWalFrames(bytes->data(), bytes->size()));
  if (read.torn_tail) {
    return Status::IoError("sealed WAL segment has a torn tail: " + seg_path);
  }
  if (read.records.empty()) {
    return Status::IoError("sealed WAL segment holds no records: " + seg_path);
  }
  return read;
}

}  // namespace

std::string WalManifestPath(const std::string& wal_path) {
  return wal_path + ".segments";
}

std::string WalSegmentPath(const std::string& wal_path,
                           const WalSegmentInfo& segment) {
  return (std::filesystem::path(wal_path).parent_path() / segment.file)
      .string();
}

Status WriteWalManifest(const std::string& wal_path,
                        const WalManifest& manifest) {
  std::string bytes;
  AppendFrame(EncodeCheckpointHeader(), &bytes);
  BinaryEncoder body;
  body.PutU64(manifest.next_segment_id);
  body.PutU32(static_cast<uint32_t>(manifest.segments.size()));
  for (const WalSegmentInfo& seg : manifest.segments) {
    body.PutU64(seg.id);
    body.PutString(seg.file);
    body.PutU64(seg.first_lsn);
    body.PutU64(seg.last_lsn);
    body.PutU64(seg.bytes);
  }
  AppendFrame(body.buffer(), &bytes);
  return WriteFileAtomic(WalManifestPath(wal_path), bytes);
}

Result<WalManifest> ReadWalManifest(const std::string& wal_path) {
  WalManifest manifest;
  const std::string path = WalManifestPath(wal_path);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return manifest;  // never rotated: a chain of one live file
  }
  ESLEV_ASSIGN_OR_RETURN(std::string bytes, ReadFileAll(path));
  ESLEV_ASSIGN_OR_RETURN(FrameScanResult frames,
                         ScanFrames(bytes.data(), bytes.size()));
  if (frames.torn_tail || frames.payloads.size() != 2) {
    return Status::IoError("corrupt WAL manifest: " + path);
  }
  ESLEV_RETURN_NOT_OK(
      ValidateCheckpointHeader(frames.payloads[0], "WAL manifest " + path));
  BinaryDecoder dec(frames.payloads[1]);
  ESLEV_ASSIGN_OR_RETURN(manifest.next_segment_id, dec.GetU64());
  ESLEV_ASSIGN_OR_RETURN(uint32_t count, dec.GetU32());
  // A segment entry is four u64 fields plus the file name string.
  ESLEV_RETURN_NOT_OK(dec.CheckCount(
      count, 4 * sizeof(uint64_t) + BinaryDecoder::kMinStringBytes));
  manifest.segments.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WalSegmentInfo seg;
    ESLEV_ASSIGN_OR_RETURN(seg.id, dec.GetU64());
    ESLEV_ASSIGN_OR_RETURN(seg.file, dec.GetString());
    ESLEV_ASSIGN_OR_RETURN(seg.first_lsn, dec.GetU64());
    ESLEV_ASSIGN_OR_RETURN(seg.last_lsn, dec.GetU64());
    ESLEV_ASSIGN_OR_RETURN(seg.bytes, dec.GetU64());
    manifest.segments.push_back(std::move(seg));
  }
  if (!dec.AtEnd()) {
    return Status::IoError("trailing bytes in WAL manifest: " + path);
  }
  return manifest;
}

Result<WalManifest> ListWalSegments(const std::string& wal_path) {
  ESLEV_ASSIGN_OR_RETURN(WalManifest manifest, ReadWalManifest(wal_path));
  // Adopt orphans: a crash after the rename but before the manifest write
  // leaves `path.<next_id>.seg` on disk unrecorded. Segment ids are dense,
  // so scanning forward from next_segment_id finds every such file.
  for (;;) {
    WalSegmentInfo seg;
    seg.id = manifest.next_segment_id;
    seg.file = SegmentFileName(wal_path, seg.id);
    const std::string seg_path = WalSegmentPath(wal_path, seg);
    std::error_code ec;
    if (!std::filesystem::exists(seg_path, ec)) break;
    std::string bytes;
    ESLEV_ASSIGN_OR_RETURN(WalReadResult read,
                           ReadCompleteSegment(seg_path, &bytes));
    seg.first_lsn = read.records.front().lsn;
    seg.last_lsn = read.records.back().lsn;
    seg.bytes = bytes.size();
    manifest.segments.push_back(std::move(seg));
    ++manifest.next_segment_id;
  }
  return manifest;
}

Result<WalReadResult> DecodeWalFrames(const char* data, size_t size) {
  WalReadResult result;
  ESLEV_ASSIGN_OR_RETURN(FrameScanResult frames, ScanFrames(data, size));
  result.valid_bytes = frames.valid_bytes;
  result.torn_tail = frames.torn_tail;
  result.records.reserve(frames.payloads.size());
  uint64_t prev_lsn = 0;
  for (const std::string& payload : frames.payloads) {
    ESLEV_ASSIGN_OR_RETURN(WalRecord record, DecodeRecord(payload));
    if (record.lsn <= prev_lsn && !result.records.empty()) {
      return Status::IoError("WAL LSNs not strictly increasing at lsn " +
                             std::to_string(record.lsn));
    }
    prev_lsn = record.lsn;
    result.records.push_back(std::move(record));
  }
  return result;
}

Result<WalReadResult> ReadWal(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return WalReadResult{};
  }
  ESLEV_ASSIGN_OR_RETURN(std::string bytes, ReadFileAll(path));
  return DecodeWalFrames(bytes.data(), bytes.size());
}

Result<WalReadResult> ReadSealedSegment(const std::string& wal_path,
                                        const WalSegmentInfo& segment,
                                        std::string* bytes) {
  const std::string seg_path = WalSegmentPath(wal_path, segment);
  std::string read_bytes;
  ESLEV_ASSIGN_OR_RETURN(WalReadResult read,
                         ReadCompleteSegment(seg_path, &read_bytes));
  if (read_bytes.size() != segment.bytes) {
    return Status::IoError("sealed WAL segment size mismatch: " + seg_path);
  }
  if (read.records.front().lsn != segment.first_lsn ||
      read.records.back().lsn != segment.last_lsn) {
    return Status::IoError("sealed WAL segment LSN range does not match " +
                           std::string("its manifest entry: ") + seg_path);
  }
  if (bytes != nullptr) *bytes = std::move(read_bytes);
  return read;
}

Result<WalChainReadResult> ReadWalChain(const std::string& path) {
  WalChainReadResult result;
  ESLEV_ASSIGN_OR_RETURN(result.manifest, ListWalSegments(path));
  uint64_t prev_lsn = 0;
  for (const WalSegmentInfo& seg : result.manifest.segments) {
    ESLEV_ASSIGN_OR_RETURN(WalReadResult read, ReadSealedSegment(path, seg));
    if (read.records.front().lsn <= prev_lsn && prev_lsn != 0) {
      return Status::IoError("WAL chain LSNs not strictly increasing at " +
                             WalSegmentPath(path, seg));
    }
    prev_lsn = read.records.back().lsn;
    for (WalRecord& record : read.records) {
      result.records.push_back(std::move(record));
    }
  }
  ESLEV_ASSIGN_OR_RETURN(WalReadResult live, ReadWal(path));
  if (!live.records.empty() && prev_lsn != 0 &&
      live.records.front().lsn <= prev_lsn) {
    return Status::IoError("live WAL file LSNs overlap the sealed chain: " +
                           path);
  }
  result.live_valid_bytes = live.valid_bytes;
  result.live_torn_tail = live.torn_tail;
  for (WalRecord& record : live.records) {
    result.records.push_back(std::move(record));
  }
  return result;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   uint64_t next_lsn,
                                                   const WalOptions& options) {
  // Heal the manifest first: adopt any orphan sealed segment left by a
  // crash between rename and manifest write, and persist the adoption so
  // every later reader agrees with the writer.
  ESLEV_ASSIGN_OR_RETURN(WalManifest raw, ReadWalManifest(path));
  ESLEV_ASSIGN_OR_RETURN(WalManifest listed, ListWalSegments(path));
  if (listed.next_segment_id != raw.next_segment_id) {
    ESLEV_RETURN_NOT_OK(WriteWalManifest(path, listed));
  }
  if (options.truncate_to_bytes.has_value()) {
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
      std::filesystem::resize_file(path, *options.truncate_to_bytes, ec);
      if (ec) {
        return Status::IoError("cannot truncate WAL " + path + ": " +
                               ec.message());
      }
    }
  }
  std::unique_ptr<WalWriter> writer(new WalWriter(path, next_lsn, options));
  writer->manifest_ = std::move(listed);
  writer->live_bytes_ = FileSizeOrZero(path);
  if (writer->live_bytes_ > 0) {
    // The live file already holds records (reopen after recovery): learn
    // their first LSN so a later seal records the right range.
    ESLEV_ASSIGN_OR_RETURN(WalReadResult live, ReadWal(path));
    if (!live.records.empty()) {
      writer->live_first_lsn_ = live.records.front().lsn;
    }
  }
  ESLEV_RETURN_NOT_OK(writer->ReopenForAppend());
  return writer;
}

WalWriter::~WalWriter() {
  Flush().ok();  // best effort; a torn tail here is what recovery tolerates
  if (file_ != nullptr) std::fclose(file_);
}

Status WalWriter::ReopenForAppend() {
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IoError("cannot open WAL for append: " + path_);
  }
  return Status::OK();
}

size_t WalWriter::BeginRecord(WalRecordKind kind, const std::string& stream) {
  // The frame header's length and CRC are patched by EndRecord, once the
  // payload behind them is written.
  const size_t frame = pending_.size();
  pending_.PutU32(0);
  pending_.PutU32(0);
  pending_.PutU8(static_cast<uint8_t>(kind));
  pending_.PutU64(next_lsn_);
  pending_.PutString(stream);
  return frame;
}

Result<uint64_t> WalWriter::EndRecord(size_t frame) {
  const size_t payload = frame + 8;
  const size_t len = pending_.size() - payload;
  pending_.PatchU32(frame, static_cast<uint32_t>(len));
  pending_.PatchU32(frame + 4, Crc32(pending_.buffer().data() + payload, len));
  ++records_appended_;
  const uint64_t lsn = next_lsn_++;
  if (live_first_lsn_ == 0) live_first_lsn_ = lsn;
  if (pending_.size() >= options_.group_commit_bytes) {
    ESLEV_RETURN_NOT_OK(Flush());
  }
  return lsn;
}

Result<uint64_t> WalWriter::AppendTuple(const std::string& stream,
                                        const Tuple& tuple) {
  const size_t frame = BeginRecord(WalRecordKind::kTuple, stream);
  // A v1 tuple: its schema inline in every record, then ts, arity, values.
  pending_.PutSchemaInline(tuple.schema());
  pending_.PutI64(tuple.ts());
  pending_.PutU32(static_cast<uint32_t>(tuple.size()));
  for (const Value& v : tuple.values()) {
    pending_.PutValue(v);
  }
  return EndRecord(frame);
}

Result<uint64_t> WalWriter::AppendHeartbeat(Timestamp ts) {
  const size_t frame = BeginRecord(WalRecordKind::kHeartbeat, std::string());
  pending_.PutI64(ts);
  return EndRecord(frame);
}

Status WalWriter::Flush() {
  if (pending_.size() > 0) {
    if (file_ == nullptr) {
      return Status::IoError("WAL writer has no open file: " + path_);
    }
    const std::string& bytes = pending_.buffer();
    const size_t n = std::fwrite(bytes.data(), 1, bytes.size(), file_);
    if (n != bytes.size() || std::fflush(file_) != 0) {
      return Status::IoError("WAL group commit failed: " + path_);
    }
    bytes_written_ += bytes.size();
    live_bytes_ += bytes.size();
    ++group_commits_;
    pending_.Clear();
  }
  if (options_.segment_bytes > 0 && live_bytes_ >= options_.segment_bytes &&
      live_first_lsn_ != 0) {
    ESLEV_RETURN_NOT_OK(SealLive());
  }
  return Status::OK();
}

Status WalWriter::SealActiveSegment() {
  ESLEV_RETURN_NOT_OK(Flush());  // may itself seal at the threshold
  if (live_first_lsn_ == 0 || live_bytes_ == 0) return Status::OK();
  return SealLive();
}

Status WalWriter::SealLive() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  WalSegmentInfo seg;
  seg.id = manifest_.next_segment_id;
  seg.file = SegmentFileName(path_, seg.id);
  seg.first_lsn = live_first_lsn_;
  seg.last_lsn = next_lsn_ - 1;
  seg.bytes = live_bytes_;
  std::error_code ec;
  std::filesystem::rename(path_, WalSegmentPath(path_, seg), ec);
  if (ec) {
    return Status::IoError("cannot seal WAL segment " + seg.file + ": " +
                           ec.message());
  }
  manifest_.segments.push_back(std::move(seg));
  ++manifest_.next_segment_id;
  // Rename-then-manifest: a crash here leaves an orphan segment that the
  // next Open adopts (ListWalSegments), so the chain never loses records.
  ESLEV_RETURN_NOT_OK(WriteWalManifest(path_, manifest_));
  live_bytes_ = 0;
  live_first_lsn_ = 0;
  ++segments_sealed_;
  return ReopenForAppend();
}

Status WalWriter::TruncateBefore(uint64_t lsn) {
  ESLEV_RETURN_NOT_OK(Flush());
  std::vector<WalSegmentInfo> keep;
  std::vector<WalSegmentInfo> drop;
  for (WalSegmentInfo& seg : manifest_.segments) {
    (seg.last_lsn < lsn ? drop : keep).push_back(std::move(seg));
  }
  if (drop.empty()) return Status::OK();
  manifest_.segments = std::move(keep);
  // Manifest first, files second: an interruption leaks unreferenced
  // segment files instead of leaving manifest entries pointing at nothing
  // (orphan adoption scans forward from next_segment_id, so dropped ids
  // are never re-adopted).
  ESLEV_RETURN_NOT_OK(WriteWalManifest(path_, manifest_));
  for (const WalSegmentInfo& seg : drop) {
    std::error_code ec;
    std::filesystem::remove(WalSegmentPath(path_, seg), ec);
    if (ec) {
      return Status::IoError("cannot delete sealed WAL segment " + seg.file +
                             ": " + ec.message());
    }
    ++segments_deleted_;
  }
  return Status::OK();
}

}  // namespace eslev
