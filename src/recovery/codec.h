// Binary codec for the durability subsystem (DESIGN.md §10): fixed
// little-endian primitive encoding, CRC32-framed records, and
// Value/Tuple/Schema serialization with per-buffer schema deduplication.
//
// The same helpers back the event WAL (recovery/wal.h), checkpoint files
// (core/engine_checkpoint.cc), the sharded manifest, and the binary
// trace format in rfid/trace_io — one frozen on-disk layout, one golden
// test (tests/recovery/golden_format_test.cc).
//
// Frame layout (all integers little-endian regardless of host):
//
//   [u32 payload_len][u32 crc32(payload)][payload bytes]
//
// A scan over a frame sequence stops at the first bad frame. A bad frame
// at end-of-file (partial header, payload shorter than its declared
// length, or CRC mismatch with nothing after it) is a *torn tail* — the
// expected result of a crash mid-append — and is tolerated: everything
// before it is returned and `torn_tail` is set. A CRC mismatch with more
// data following is mid-file corruption and fails with a Status.

#ifndef ESLEV_RECOVERY_CODEC_H_
#define ESLEV_RECOVERY_CODEC_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"

namespace eslev {

/// \brief CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `len` bytes,
/// eight bytes per step (slice-by-8 over compile-time tables).
uint32_t Crc32(const void* data, size_t len);
inline uint32_t Crc32(const std::string& s) { return Crc32(s.data(), s.size()); }

/// \brief Append-only little-endian encoder. Schemas are deduplicated
/// within one encoder: the first PutSchema of a layout writes the full
/// definition, later ones write a back-reference — so a checkpoint
/// section holding thousands of same-schema tuples stays compact.
class BinaryEncoder {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  /// u32 length + raw bytes.
  void PutString(const std::string& s);

  /// u8 type tag (the TypeId integer, frozen by the golden test) + payload.
  void PutValue(const Value& v);
  /// Schema back-reference or inline definition (see class comment).
  void PutSchema(const SchemaPtr& schema);
  /// Inline definition (or the null marker) that neither uses nor enters
  /// the schema table: the bytes a fresh encoder's first PutSchema
  /// writes. Every v1 WAL record carries its schema this way.
  void PutSchemaInline(const SchemaPtr& schema);
  /// Schema ref + i64 ts + u32 arity + values. Self-contained given the
  /// encoder's schema table.
  void PutTuple(const Tuple& tuple);

  /// Overwrite the u32 written earlier at byte `offset` (a frame header
  /// whose length and CRC are known only once the payload is written).
  void PatchU32(size_t offset, uint32_t v);

  const std::string& buffer() const { return buf_; }
  std::string TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  /// Drop the bytes and the schema table; the buffer keeps its capacity,
  /// so an encoder reused this way stops allocating once warm.
  void Clear() {
    buf_.clear();
    schema_ids_.clear();
  }

 private:
  std::string buf_;
  std::map<const Schema*, uint32_t> schema_ids_;
};

/// \brief Bounds-checked decoder over a byte span (not owned). Every read
/// fails with an IoError Status instead of running past the end.
class BinaryDecoder {
 public:
  BinaryDecoder(const char* data, size_t size)
      : data_(data), size_(size) {}
  explicit BinaryDecoder(const std::string& buf)
      : BinaryDecoder(buf.data(), buf.size()) {}

  Result<uint8_t> GetU8();
  Result<bool> GetBool();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<std::string> GetString();

  Result<Value> GetValue();
  Result<SchemaPtr> GetSchema();
  Result<Tuple> GetTuple();

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

  /// \brief Fail with an IoError unless `count` items of at least
  /// `min_bytes` encoded bytes each fit in the remaining input. Call
  /// before reserving storage for a decoded count, so a corrupt count
  /// cannot demand an allocation larger than the input.
  Status CheckCount(uint64_t count, size_t min_bytes) const;

  /// Smallest encodings, for CheckCount: a string is at least its u32
  /// length, a value its type tag, a tuple a null-schema marker + i64 ts
  /// + u32 arity.
  static constexpr size_t kMinStringBytes = 4;
  static constexpr size_t kMinValueBytes = 1;
  static constexpr size_t kMinTupleBytes = 13;

 private:
  Status Need(size_t n) const;

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  std::vector<SchemaPtr> schemas_;  // decoded schema table, id == index
};

/// \brief Append one CRC32 frame wrapping `payload` to `out`.
void AppendFrame(const std::string& payload, std::string* out);

/// \brief Result of scanning a frame sequence (see file comment for the
/// torn-tail vs mid-file-corruption distinction).
struct FrameScanResult {
  std::vector<std::string> payloads;
  /// Byte offset just past the last good frame — truncate the file here
  /// before appending after a torn tail.
  size_t valid_bytes = 0;
  bool torn_tail = false;
};

/// \brief Scan `size` bytes of frames. Status on mid-file corruption.
Result<FrameScanResult> ScanFrames(const char* data, size_t size);

/// \brief Write `contents` to `path` atomically (temp file + rename).
Status WriteFileAtomic(const std::string& path, const std::string& contents);

/// \brief Read a whole file; IoError when missing/unreadable.
Result<std::string> ReadFileAll(const std::string& path);

}  // namespace eslev

#endif  // ESLEV_RECOVERY_CODEC_H_
