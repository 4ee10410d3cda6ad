// Golden-file tests freezing the on-disk recovery formats (DESIGN.md
// §10). These byte sequences are a compatibility contract: if one of
// these tests fails, either bump kCheckpointVersion (incompatible
// change) or fix the regression — never update the expected bytes
// silently.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/engine.h"
#include "recovery/checkpoint.h"
#include "recovery/codec.h"
#include "recovery/wal.h"
#include "types/value.h"

namespace eslev {
namespace {

std::string Hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xF]);
  }
  return out;
}

TEST(GoldenFormatTest, Crc32CheckValue) {
  // The standard CRC-32/ISO-HDLC check value: pins polynomial,
  // reflection, and init/final XOR all at once.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
}

// Bit-at-a-time CRC-32 straight from the definition (reflected IEEE
// polynomial, all-ones init and final XOR), independent of any table.
uint32_t BitwiseCrc32(const unsigned char* p, size_t len) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(GoldenFormatTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Every length from 0 to 64 covers empty input, the byte-wise tail, and
  // several whole 8-byte blocks; starting at each offset 0..7 of the
  // buffer covers every alignment of the first block.
  unsigned char buf[64 + 8];
  uint32_t x = 12345;
  for (unsigned char& b : buf) {
    x = x * 1103515245u + 12345u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32(buf + offset, len), BitwiseCrc32(buf + offset, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(GoldenFormatTest, FrameLayout) {
  // [u32 payload_len][u32 crc32(payload)][payload], all little-endian.
  std::string file;
  AppendFrame("123456789", &file);
  EXPECT_EQ(Hex(file),
            "09000000"            // payload length 9
            "2639f4cb"            // crc 0xCBF43926, little-endian
            "313233343536373839"  // "123456789"
  );
}

TEST(GoldenFormatTest, ScalarEncodings) {
  BinaryEncoder enc;
  enc.PutU32(0x01020304u);
  enc.PutU64(0x0102030405060708ull);
  enc.PutI64(-1);
  enc.PutString("ab");
  EXPECT_EQ(Hex(enc.buffer()),
            "04030201"
            "0807060504030201"
            "ffffffffffffffff"
            "020000006162");
}

TEST(GoldenFormatTest, ValueEncodings) {
  BinaryEncoder enc;
  enc.PutValue(Value::Null());
  enc.PutValue(Value::Bool(true));
  enc.PutValue(Value::Int(7));
  enc.PutValue(Value::Double(1.0));
  enc.PutValue(Value::String("ab"));
  enc.PutValue(Value::Time(42));
  EXPECT_EQ(Hex(enc.buffer()),
            "00"                    // null: tag only
            "0101"                  // bool true
            "020700000000000000"    // int64 7
            "03000000000000f03f"    // double 1.0 (IEEE-754 bits)
            "04020000006162"        // string "ab"
            "052a00000000000000");  // timestamp 42
}

TEST(GoldenFormatTest, SchemaInlineThenBackReference) {
  SchemaPtr schema = Schema::Make({{"t", TypeId::kInt64}});
  BinaryEncoder enc;
  enc.PutSchema(schema);
  enc.PutSchema(schema);   // same pointer: back-reference
  enc.PutSchema(nullptr);  // null marker
  EXPECT_EQ(Hex(enc.buffer()),
            "00"          // inline marker, assigned id 0
            "01000000"    // 1 field
            "0100000074"  // name "t"
            "02"          // TypeId::kInt64
            "01"          // ref marker
            "00000000"    // back-reference to id 0
            "02");        // null-schema marker
}

TEST(GoldenFormatTest, TupleLayout) {
  SchemaPtr schema = Schema::Make({{"t", TypeId::kInt64}});
  BinaryEncoder enc;
  enc.PutTuple(Tuple(schema, {Value::Int(5)}, 9));
  EXPECT_EQ(Hex(enc.buffer()),
            "0001000000010000007402"  // inline schema as above
            "0900000000000000"        // ts 9
            "01000000"                // arity 1
            "020500000000000000");    // int64 5
}

TEST(GoldenFormatTest, CheckpointHeaderMagicAndVersion) {
  // "VLSE" + version 1; ValidateCheckpointHeader accepts exactly this.
  const std::string header = EncodeCheckpointHeader();
  EXPECT_EQ(Hex(header), "564c534501000000");
  EXPECT_TRUE(ValidateCheckpointHeader(header, "golden").ok());

  BinaryEncoder wrong_version;
  wrong_version.PutU32(kCheckpointMagic);
  wrong_version.PutU32(kCheckpointVersion + 1);
  Status st = ValidateCheckpointHeader(wrong_version.buffer(), "golden");
  EXPECT_TRUE(st.IsIoError());
}

TEST(GoldenFormatTest, WalHeartbeatRecordBytes) {
  const std::string path = ::testing::TempDir() + "golden_wal.log";
  std::remove(path.c_str());
  {
    auto writer = WalWriter::Open(path, 1);
    ASSERT_TRUE(writer.ok()) << writer.status();
    ASSERT_TRUE((*writer)->AppendHeartbeat(42).ok());
    ASSERT_TRUE((*writer)->Flush().ok());
  }
  auto bytes = ReadFileAll(path);
  ASSERT_TRUE(bytes.ok());
  std::remove(path.c_str());
  // Payload: [u8 kind=2][u64 lsn=1][u32 len=0 ""][i64 ts=42] = 21 bytes.
  const std::string payload =
      std::string("\x02", 1) + std::string("\x01", 1) + std::string(7, '\0') +
      std::string(4, '\0') + std::string("\x2a", 1) + std::string(7, '\0');
  std::string expected;
  AppendFrame(payload, &expected);
  EXPECT_EQ(Hex(*bytes), Hex(expected));
  EXPECT_EQ(Hex(*bytes).substr(0, 16),
            Hex(std::string("\x15\x00\x00\x00", 4)) +  // length 21
                Hex(expected.substr(4, 4)));           // crc over payload
}

TEST(GoldenFormatTest, WalTupleRecordBytes) {
  // One reading in the RFID schema, logged as the first record: the v1
  // payload carries its schema inline, field names included.
  const std::string path = ::testing::TempDir() + "golden_wal_tuple.log";
  std::remove(path.c_str());
  SchemaPtr schema = Schema::Make({{"reader_id", TypeId::kString},
                                   {"tag_id", TypeId::kString},
                                   {"read_time", TypeId::kTimestamp}});
  const Tuple reading(
      schema, {Value::String("rd1"), Value::String("tag7"), Value::Time(1000)},
      1000);
  {
    auto writer = WalWriter::Open(path, 1);
    ASSERT_TRUE(writer.ok()) << writer.status();
    auto lsn = (*writer)->AppendTuple("readings", reading);
    ASSERT_TRUE(lsn.ok()) << lsn.status();
    EXPECT_EQ(*lsn, 1u);
    ASSERT_TRUE((*writer)->Flush().ok());
  }
  auto bytes = ReadFileAll(path);
  ASSERT_TRUE(bytes.ok());
  std::remove(path.c_str());
  EXPECT_EQ(Hex(*bytes),
            "67000000"                // payload length 103
            "179d2f5e"                // crc 0x5e2f9d17, little-endian
            "01"                      // kind: tuple
            "0100000000000000"        // lsn 1
            "0800000072656164696e6773"  // stream "readings"
            "00"                      // inline schema marker
            "03000000"                // 3 fields
            "090000007265616465725f696404"  // "reader_id" VARCHAR
            "060000007461675f696404"        // "tag_id" VARCHAR
            "09000000726561645f74696d6505"  // "read_time" TIMESTAMP
            "e803000000000000"        // ts 1000
            "03000000"                // arity 3
            "0403000000726431"        // VARCHAR 'rd1'
            "040400000074616737"      // VARCHAR 'tag7'
            "05e803000000000000");    // TIMESTAMP 1000
}

TEST(GoldenFormatTest, EmptyEngineCheckpointStructure) {
  const std::string dir = ::testing::TempDir() + "golden_ckpt";
  Engine engine;
  ASSERT_TRUE(engine.Checkpoint(dir).ok());
  auto bytes = ReadFileAll(dir + "/" + kCheckpointFileName);
  ASSERT_TRUE(bytes.ok());
  auto frames = ScanFrames(bytes->data(), bytes->size());
  ASSERT_TRUE(frames.ok()) << frames.status();
  EXPECT_FALSE(frames->torn_tail);
  // An empty engine checkpoints to exactly header + end marker.
  ASSERT_EQ(frames->payloads.size(), 2u);
  EXPECT_EQ(frames->payloads[1], "ESLEV-CKPT-END");
  // Header prefix: magic + version, then clock (kMinTimestamp), covered
  // WAL LSN 0, and zero stream/table/query counts.
  BinaryEncoder expected;
  expected.PutU32(kCheckpointMagic);
  expected.PutU32(kCheckpointVersion);
  expected.PutI64(kMinTimestamp);
  expected.PutU64(0);
  expected.PutU32(0);
  expected.PutU32(0);
  expected.PutU32(0);
  EXPECT_EQ(Hex(frames->payloads[0]), Hex(expected.buffer()));
  std::remove((dir + "/" + kCheckpointFileName).c_str());
}

TEST(GoldenFormatTest, ManifestRoundTripAndLayout) {
  ShardedManifest manifest;
  manifest.num_shards = 2;
  manifest.low_watermark = 99;
  manifest.wal_last_lsn = 7;
  manifest.shard_dirs = {"shard0", "shard1"};
  const std::string bytes = manifest.Encode();
  auto frames = ScanFrames(bytes.data(), bytes.size());
  ASSERT_TRUE(frames.ok());
  ASSERT_EQ(frames->payloads.size(), 2u);
  EXPECT_EQ(Hex(frames->payloads[0]), "564c534501000000");
  auto decoded = ShardedManifest::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->num_shards, 2u);
  EXPECT_EQ(decoded->low_watermark, 99);
  EXPECT_EQ(decoded->wal_last_lsn, 7u);
  EXPECT_EQ(decoded->shard_dirs, manifest.shard_dirs);
}

}  // namespace
}  // namespace eslev
