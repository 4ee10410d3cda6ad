// Binary codec and frame-scanner unit tests (recovery/codec.h): value /
// schema / tuple round-trips, schema deduplication, and the torn-tail
// vs mid-file-corruption classification the WAL and checkpoint formats
// rely on.

#include "recovery/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"

namespace eslev {
namespace {

TEST(BinaryCodecTest, ScalarRoundTrip) {
  BinaryEncoder enc;
  enc.PutU8(0xAB);
  enc.PutBool(true);
  enc.PutBool(false);
  enc.PutU32(0xDEADBEEFu);
  enc.PutU64(0x0123456789ABCDEFull);
  enc.PutI64(-42);
  enc.PutDouble(3.5);
  enc.PutString("hello");
  enc.PutString("");

  BinaryDecoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetU8(), 0xAB);
  EXPECT_EQ(*dec.GetBool(), true);
  EXPECT_EQ(*dec.GetBool(), false);
  EXPECT_EQ(*dec.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*dec.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*dec.GetI64(), -42);
  EXPECT_EQ(*dec.GetDouble(), 3.5);
  EXPECT_EQ(*dec.GetString(), "hello");
  EXPECT_EQ(*dec.GetString(), "");
  EXPECT_TRUE(dec.AtEnd());
}

TEST(BinaryCodecTest, ValueRoundTripAllTypes) {
  const std::vector<Value> values = {
      Value::Null(),         Value::Bool(true),      Value::Bool(false),
      Value::Int(INT64_MIN), Value::Int(INT64_MAX),  Value::Double(-0.0),
      Value::Double(1e300),  Value::String("tag42"), Value::Time(123456789),
  };
  BinaryEncoder enc;
  for (const Value& v : values) enc.PutValue(v);
  BinaryDecoder dec(enc.buffer());
  for (const Value& v : values) {
    auto got = dec.GetValue();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->type(), v.type());
    EXPECT_TRUE(*got == v) << got->ToString() << " vs " << v.ToString();
  }
  EXPECT_TRUE(dec.AtEnd());
}

TEST(BinaryCodecTest, NanDoubleSurvivesBitExactly) {
  BinaryEncoder enc;
  enc.PutDouble(std::nan(""));
  BinaryDecoder dec(enc.buffer());
  EXPECT_TRUE(std::isnan(*dec.GetDouble()));
}

TEST(BinaryCodecTest, TupleRoundTripAndSchemaDedup) {
  SchemaPtr schema = Schema::Make({{"reader_id", TypeId::kString},
                                   {"tag_id", TypeId::kString},
                                   {"read_time", TypeId::kTimestamp}});
  Tuple a(schema, {Value::String("r1"), Value::String("t1"), Value::Time(10)},
          10);
  Tuple b(schema, {Value::String("r2"), Value::String("t2"), Value::Time(20)},
          20);

  BinaryEncoder enc;
  enc.PutTuple(a);
  const size_t first_size = enc.size();
  enc.PutTuple(b);
  // The second tuple reuses the schema by back-reference, so it must be
  // strictly smaller on the wire than the first.
  EXPECT_LT(enc.size() - first_size, first_size);

  BinaryDecoder dec(enc.buffer());
  auto ra = dec.GetTuple();
  auto rb = dec.GetTuple();
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_EQ(ra->ToString(), a.ToString());
  EXPECT_EQ(rb->ToString(), b.ToString());
  EXPECT_EQ(ra->ts(), 10);
  EXPECT_EQ(rb->ts(), 20);
  // Decoded tuples share one schema object, like the originals.
  EXPECT_EQ(ra->schema().get(), rb->schema().get());
  EXPECT_TRUE(ra->schema()->Equals(*schema));
}

TEST(BinaryCodecTest, NullSchemaMarker) {
  BinaryEncoder enc;
  enc.PutSchema(nullptr);
  BinaryDecoder dec(enc.buffer());
  auto schema = dec.GetSchema();
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(*schema, nullptr);
}

TEST(BinaryCodecTest, DecodePastEndFailsCleanly) {
  BinaryEncoder enc;
  enc.PutU32(7);
  BinaryDecoder dec(enc.buffer());
  EXPECT_TRUE(dec.GetU64().status().IsIoError());
}

TEST(BinaryCodecTest, CheckCountBoundsCountByRemainingBytes) {
  BinaryEncoder enc;
  enc.PutU32(1);
  enc.PutU64(2);
  BinaryDecoder dec(enc.buffer());
  ASSERT_TRUE(dec.GetU32().ok());  // 8 bytes remain
  EXPECT_TRUE(dec.CheckCount(0, 13).ok());
  EXPECT_TRUE(dec.CheckCount(2, 4).ok());
  EXPECT_TRUE(dec.CheckCount(3, 4).IsIoError());
  EXPECT_TRUE(dec.CheckCount(UINT64_MAX, 1).IsIoError());
}

TEST(BinaryCodecTest, TruncatedStringFailsCleanly) {
  BinaryEncoder enc;
  enc.PutU32(1000);  // declared length far past the end
  BinaryDecoder dec(enc.buffer());
  EXPECT_TRUE(dec.GetString().status().IsIoError());
}

TEST(FrameScanTest, CleanFileYieldsAllPayloads) {
  std::string file;
  AppendFrame("alpha", &file);
  AppendFrame("", &file);
  AppendFrame("gamma", &file);
  auto scan = ScanFrames(file.data(), file.size());
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->valid_bytes, file.size());
  ASSERT_EQ(scan->payloads.size(), 3u);
  EXPECT_EQ(scan->payloads[0], "alpha");
  EXPECT_EQ(scan->payloads[1], "");
  EXPECT_EQ(scan->payloads[2], "gamma");
}

TEST(FrameScanTest, PartialHeaderIsTornTail) {
  std::string file;
  AppendFrame("alpha", &file);
  const size_t clean = file.size();
  file.append("\x03\x00", 2);  // 2 bytes of a next header
  auto scan = ScanFrames(file.data(), file.size());
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->valid_bytes, clean);
  ASSERT_EQ(scan->payloads.size(), 1u);
}

TEST(FrameScanTest, ShortPayloadIsTornTail) {
  std::string file;
  AppendFrame("alpha", &file);
  const size_t clean = file.size();
  std::string torn;
  AppendFrame("this frame will be cut", &torn);
  file.append(torn.substr(0, torn.size() - 5));
  auto scan = ScanFrames(file.data(), file.size());
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->valid_bytes, clean);
}

TEST(FrameScanTest, CorruptFinalFrameIsTornTail) {
  std::string file;
  AppendFrame("alpha", &file);
  const size_t clean = file.size();
  AppendFrame("omega", &file);
  file.back() ^= 0x40;  // flip a payload bit of the last frame
  auto scan = ScanFrames(file.data(), file.size());
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->valid_bytes, clean);
  ASSERT_EQ(scan->payloads.size(), 1u);
}

TEST(FrameScanTest, CorruptMidFileFrameIsAnError) {
  std::string file;
  AppendFrame("alpha", &file);
  const size_t mid = file.size();
  AppendFrame("beta", &file);
  AppendFrame("gamma", &file);
  file[mid + 8] ^= 0x40;  // corrupt "beta"'s payload; "gamma" follows
  auto scan = ScanFrames(file.data(), file.size());
  EXPECT_TRUE(scan.status().IsIoError());
}

TEST(FrameScanTest, AbsurdLengthFieldIsTornTailNotAllocation) {
  std::string file;
  BinaryEncoder header;
  header.PutU32(0xFFFFFFFFu);  // 4 GiB declared payload
  header.PutU32(0);
  file.append(header.buffer());
  file.append("short");
  auto scan = ScanFrames(file.data(), file.size());
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->valid_bytes, 0u);
}

TEST(FileIoTest, AtomicWriteThenReadBack) {
  const std::string path = ::testing::TempDir() + "codec_test_atomic.bin";
  std::string contents("binary\0payload", 14);
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());
  auto back = ReadFileAll(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, contents);
  // Overwrite atomically: the new contents fully replace the old.
  ASSERT_TRUE(WriteFileAtomic(path, "v2").ok());
  EXPECT_EQ(*ReadFileAll(path), "v2");
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsIoError) {
  EXPECT_TRUE(ReadFileAll(::testing::TempDir() + "does_not_exist_12345")
                  .status()
                  .IsIoError());
}

}  // namespace
}  // namespace eslev
