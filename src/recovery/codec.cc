#include "recovery/codec.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

namespace eslev {

namespace {

// Slice-by-8 tables for the reflected IEEE CRC-32, built at compile time.
// kCrc32Tables[0] is the classic byte-at-a-time table; entry i of table k
// is the CRC state after feeding byte i followed by k zero bytes, so eight
// lookups advance the state over eight input bytes at once.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Little-endian u32 at `p`, whatever the host order or alignment.
inline uint32_t LoadLe32(const unsigned char* p) {
  if constexpr (std::endian::native == std::endian::little) {
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
  }
}

// Schema back-reference markers (frozen by the golden-format test).
constexpr uint8_t kSchemaInline = 0;
constexpr uint8_t kSchemaRef = 1;
constexpr uint8_t kSchemaNull = 2;

// Frames cannot plausibly exceed this; larger length fields are garbage
// (protects the scanner from allocating gigabytes off a corrupt header).
constexpr uint32_t kMaxFrameLen = 1u << 30;

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  const auto& t = kCrc32Tables;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void BinaryEncoder::PutU32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  buf_.append(bytes, sizeof(bytes));
}

void BinaryEncoder::PutU64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  buf_.append(bytes, sizeof(bytes));
}

void BinaryEncoder::PatchU32(size_t offset, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_[offset + static_cast<size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

void BinaryEncoder::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void BinaryEncoder::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void BinaryEncoder::PutValue(const Value& v) {
  PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case TypeId::kNull:
      break;
    case TypeId::kBool:
      PutBool(v.bool_value());
      break;
    case TypeId::kInt64:
      PutI64(v.int_value());
      break;
    case TypeId::kDouble:
      PutDouble(v.double_value());
      break;
    case TypeId::kString:
      PutString(v.string_value());
      break;
    case TypeId::kTimestamp:
      PutI64(v.time_value());
      break;
  }
}

void BinaryEncoder::PutSchema(const SchemaPtr& schema) {
  if (schema == nullptr) {
    PutU8(kSchemaNull);
    return;
  }
  auto it = schema_ids_.find(schema.get());
  if (it != schema_ids_.end()) {
    PutU8(kSchemaRef);
    PutU32(it->second);
    return;
  }
  const uint32_t id = static_cast<uint32_t>(schema_ids_.size());
  schema_ids_.emplace(schema.get(), id);
  PutSchemaInline(schema);
}

void BinaryEncoder::PutSchemaInline(const SchemaPtr& schema) {
  if (schema == nullptr) {
    PutU8(kSchemaNull);
    return;
  }
  PutU8(kSchemaInline);
  PutU32(static_cast<uint32_t>(schema->num_fields()));
  for (const Field& f : schema->fields()) {
    PutString(f.name);
    PutU8(static_cast<uint8_t>(f.type));
  }
}

void BinaryEncoder::PutTuple(const Tuple& tuple) {
  PutSchema(tuple.schema());
  PutI64(tuple.ts());
  PutU32(static_cast<uint32_t>(tuple.size()));
  for (const Value& v : tuple.values()) {
    PutValue(v);
  }
}

Status BinaryDecoder::Need(size_t n) const {
  if (size_ - pos_ < n) {
    return Status::IoError("decode past end of buffer (want " +
                           std::to_string(n) + " bytes, have " +
                           std::to_string(size_ - pos_) + ")");
  }
  return Status::OK();
}

Status BinaryDecoder::CheckCount(uint64_t count, size_t min_bytes) const {
  if (count > remaining() / min_bytes) {
    return Status::IoError("decoded count " + std::to_string(count) +
                           " needs at least " + std::to_string(min_bytes) +
                           " bytes each, have " +
                           std::to_string(remaining()) + " bytes");
  }
  return Status::OK();
}

Result<uint8_t> BinaryDecoder::GetU8() {
  ESLEV_RETURN_NOT_OK(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<bool> BinaryDecoder::GetBool() {
  ESLEV_ASSIGN_OR_RETURN(uint8_t v, GetU8());
  if (v > 1) return Status::IoError("bad bool byte");
  return v == 1;
}

Result<uint32_t> BinaryDecoder::GetU32() {
  ESLEV_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> BinaryDecoder::GetU64() {
  ESLEV_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> BinaryDecoder::GetI64() {
  ESLEV_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> BinaryDecoder::GetDouble() {
  ESLEV_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> BinaryDecoder::GetString() {
  ESLEV_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  ESLEV_RETURN_NOT_OK(Need(len));
  std::string s(data_ + pos_, len);
  pos_ += len;
  return s;
}

Result<Value> BinaryDecoder::GetValue() {
  ESLEV_ASSIGN_OR_RETURN(uint8_t tag, GetU8());
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kNull:
      return Value::Null();
    case TypeId::kBool: {
      ESLEV_ASSIGN_OR_RETURN(bool v, GetBool());
      return Value::Bool(v);
    }
    case TypeId::kInt64: {
      ESLEV_ASSIGN_OR_RETURN(int64_t v, GetI64());
      return Value::Int(v);
    }
    case TypeId::kDouble: {
      ESLEV_ASSIGN_OR_RETURN(double v, GetDouble());
      return Value::Double(v);
    }
    case TypeId::kString: {
      ESLEV_ASSIGN_OR_RETURN(std::string v, GetString());
      return Value::String(std::move(v));
    }
    case TypeId::kTimestamp: {
      ESLEV_ASSIGN_OR_RETURN(int64_t v, GetI64());
      return Value::Time(v);
    }
  }
  return Status::IoError("bad value type tag " + std::to_string(tag));
}

Result<SchemaPtr> BinaryDecoder::GetSchema() {
  ESLEV_ASSIGN_OR_RETURN(uint8_t marker, GetU8());
  switch (marker) {
    case kSchemaNull:
      return SchemaPtr(nullptr);
    case kSchemaRef: {
      ESLEV_ASSIGN_OR_RETURN(uint32_t id, GetU32());
      if (id >= schemas_.size()) {
        return Status::IoError("schema back-reference out of range");
      }
      return schemas_[id];
    }
    case kSchemaInline: {
      ESLEV_ASSIGN_OR_RETURN(uint32_t nfields, GetU32());
      // A field is a name string plus a u8 type tag.
      ESLEV_RETURN_NOT_OK(CheckCount(nfields, kMinStringBytes + 1));
      std::vector<Field> fields;
      fields.reserve(nfields);
      for (uint32_t i = 0; i < nfields; ++i) {
        Field f;
        ESLEV_ASSIGN_OR_RETURN(f.name, GetString());
        ESLEV_ASSIGN_OR_RETURN(uint8_t type, GetU8());
        if (type > static_cast<uint8_t>(TypeId::kTimestamp)) {
          return Status::IoError("bad field type tag");
        }
        f.type = static_cast<TypeId>(type);
        fields.push_back(std::move(f));
      }
      SchemaPtr schema = Schema::Make(std::move(fields));
      schemas_.push_back(schema);
      return schema;
    }
    default:
      return Status::IoError("bad schema marker " + std::to_string(marker));
  }
}

Result<Tuple> BinaryDecoder::GetTuple() {
  ESLEV_ASSIGN_OR_RETURN(SchemaPtr schema, GetSchema());
  ESLEV_ASSIGN_OR_RETURN(int64_t ts, GetI64());
  ESLEV_ASSIGN_OR_RETURN(uint32_t arity, GetU32());
  ESLEV_RETURN_NOT_OK(CheckCount(arity, kMinValueBytes));
  std::vector<Value> values;
  values.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    ESLEV_ASSIGN_OR_RETURN(Value v, GetValue());
    values.push_back(std::move(v));
  }
  // Direct construction: the values were serialized from a valid tuple,
  // and re-validation (MakeTuple) could coerce and break byte-identity.
  return Tuple(std::move(schema), std::move(values), ts);
}

void AppendFrame(const std::string& payload, std::string* out) {
  BinaryEncoder header;
  header.PutU32(static_cast<uint32_t>(payload.size()));
  header.PutU32(Crc32(payload));
  out->append(header.buffer());
  out->append(payload);
}

Result<FrameScanResult> ScanFrames(const char* data, size_t size) {
  FrameScanResult result;
  size_t pos = 0;
  while (pos < size) {
    if (size - pos < 8) {
      result.torn_tail = true;  // partial frame header
      break;
    }
    BinaryDecoder header(data + pos, 8);
    const uint32_t len = *header.GetU32();
    const uint32_t crc = *header.GetU32();
    if (len > kMaxFrameLen || size - pos - 8 < len) {
      result.torn_tail = true;  // payload shorter than declared
      break;
    }
    const char* payload = data + pos + 8;
    if (Crc32(payload, len) != crc) {
      if (pos + 8 + len == size) {
        result.torn_tail = true;  // torn final frame (partial overwrite)
        break;
      }
      return Status::IoError(
          "frame CRC mismatch at offset " + std::to_string(pos) +
          " with data following (mid-file corruption)");
    }
    result.payloads.emplace_back(payload, len);
    pos += 8 + len;
    result.valid_bytes = pos;
  }
  return result;
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + tmp);
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != contents.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::IoError("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

Result<std::string> ReadFileAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::IoError("read failed: " + path);
  return out;
}

}  // namespace eslev
