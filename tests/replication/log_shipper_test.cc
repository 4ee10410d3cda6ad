// LogShipper unit tests (replication/log_shipper.h): sealed-segment +
// live-tail shipping rounds, manifest mirroring, incremental restarts,
// shipped-copy pruning, lag measurement, and the corruption-injection
// cases — a flipped byte in a primary sealed segment, or a segment whose
// size or LSN range disagrees with its manifest entry, must refuse to
// ship.

#include "replication/log_shipper.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "types/schema.h"
#include "types/value.h"

namespace eslev {
namespace {

class LogShipperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string base =
        ::testing::TempDir() + "log_shipper_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(base);
    std::filesystem::create_directories(base + "/primary");
    std::filesystem::create_directories(base + "/standby");
    base_ = base;
    primary_ = base + "/primary/wal.log";
    standby_ = base + "/standby/wal.log";
    schema_ = Schema::Make({{"reader_id", TypeId::kString},
                            {"tag_id", TypeId::kString},
                            {"read_time", TypeId::kTimestamp}});
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  Tuple MakeReading(const std::string& tag, Timestamp ts) const {
    return Tuple(schema_,
                 {Value::String("r1"), Value::String(tag), Value::Time(ts)},
                 ts);
  }

  std::unique_ptr<WalWriter> OpenWriter(size_t segment_bytes,
                                        uint64_t next_lsn = 1) {
    WalOptions options;
    options.group_commit_bytes = 0;
    options.segment_bytes = segment_bytes;
    auto writer = WalWriter::Open(primary_, next_lsn, options);
    EXPECT_TRUE(writer.ok()) << writer.status();
    return std::move(*writer);
  }

  std::vector<uint64_t> ShippedLsns() {
    auto chain = ReadWalChain(standby_);
    EXPECT_TRUE(chain.ok()) << chain.status();
    std::vector<uint64_t> lsns;
    for (const WalRecord& r : chain->records) lsns.push_back(r.lsn);
    return lsns;
  }

  std::string base_, primary_, standby_;
  SchemaPtr schema_;
};

TEST_F(LogShipperTest, ShipsSealedSegmentsAndLiveTail) {
  auto writer = OpenWriter(/*segment_bytes=*/1);  // one record per segment
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(writer->AppendTuple("readings", MakeReading("t", i * 10)).ok());
  }
  ASSERT_TRUE(writer->Flush().ok());
  ASSERT_EQ(writer->sealed_segments().size(), 3u);

  LogShipper shipper(primary_, standby_);
  ASSERT_TRUE(shipper.Ship().ok());
  EXPECT_EQ(shipper.segments_shipped(), 3u);
  EXPECT_EQ(ShippedLsns(), (std::vector<uint64_t>{1, 2, 3}));

  auto lag = shipper.MeasureLagBytes();
  ASSERT_TRUE(lag.ok());
  EXPECT_EQ(*lag, 0u);
}

TEST_F(LogShipperTest, ShipsLiveBytesBeforeAnySeal) {
  auto writer = OpenWriter(/*segment_bytes=*/1 << 20);  // never rotates
  ASSERT_TRUE(writer->AppendHeartbeat(100).ok());
  ASSERT_TRUE(writer->AppendHeartbeat(200).ok());
  ASSERT_TRUE(writer->Flush().ok());

  LogShipper shipper(primary_, standby_);
  ASSERT_TRUE(shipper.Ship().ok());
  EXPECT_EQ(shipper.segments_shipped(), 0u);
  EXPECT_EQ(ShippedLsns(), (std::vector<uint64_t>{1, 2}));

  // The next round ships only the delta.
  const uint64_t shipped_before = shipper.bytes_shipped();
  ASSERT_TRUE(writer->AppendHeartbeat(300).ok());
  ASSERT_TRUE(writer->Flush().ok());
  ASSERT_TRUE(shipper.Ship().ok());
  EXPECT_GT(shipper.bytes_shipped(), shipped_before);
  EXPECT_EQ(ShippedLsns(), (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(LogShipperTest, SealMidStreamRestartsTheLiveCopy) {
  auto writer = OpenWriter(/*segment_bytes=*/1 << 20);
  ASSERT_TRUE(writer->AppendHeartbeat(100).ok());
  ASSERT_TRUE(writer->Flush().ok());

  LogShipper shipper(primary_, standby_);
  ASSERT_TRUE(shipper.Ship().ok());  // lsn 1 via the live copy

  // Seal, then append into the fresh live file: the shipped chain must
  // carry lsn 1 in a sealed copy and lsn 2 in the restarted live copy.
  ASSERT_TRUE(writer->SealActiveSegment().ok());
  ASSERT_TRUE(writer->AppendHeartbeat(200).ok());
  ASSERT_TRUE(writer->Flush().ok());
  ASSERT_TRUE(shipper.Ship().ok());
  EXPECT_EQ(shipper.segments_shipped(), 1u);
  EXPECT_EQ(ShippedLsns(), (std::vector<uint64_t>{1, 2}));
}

TEST_F(LogShipperTest, RestartedShipperResumesFromShippedManifest) {
  auto writer = OpenWriter(/*segment_bytes=*/1);
  ASSERT_TRUE(writer->AppendHeartbeat(100).ok());
  ASSERT_TRUE(writer->Flush().ok());
  {
    LogShipper shipper(primary_, standby_);
    ASSERT_TRUE(shipper.Ship().ok());
    EXPECT_EQ(shipper.segments_shipped(), 1u);
  }
  ASSERT_TRUE(writer->AppendHeartbeat(200).ok());
  ASSERT_TRUE(writer->Flush().ok());
  // A fresh shipper (process restart) must not re-ship segment 1.
  LogShipper shipper(primary_, standby_);
  ASSERT_TRUE(shipper.Ship().ok());
  EXPECT_EQ(shipper.segments_shipped(), 1u);
  EXPECT_EQ(ShippedLsns(), (std::vector<uint64_t>{1, 2}));
}

TEST_F(LogShipperTest, PruneShippedBeforeDropsWholeSegments) {
  auto writer = OpenWriter(/*segment_bytes=*/1);
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(writer->AppendHeartbeat(i * 100).ok());
  }
  ASSERT_TRUE(writer->Flush().ok());
  LogShipper shipper(primary_, standby_);
  ASSERT_TRUE(shipper.Ship().ok());
  ASSERT_EQ(ShippedLsns(), (std::vector<uint64_t>{1, 2, 3, 4}));

  ASSERT_TRUE(shipper.PruneShippedBefore(3).ok());
  EXPECT_EQ(ShippedLsns(), (std::vector<uint64_t>{3, 4}));
  // Idempotent, and pruning never touches what is still needed.
  ASSERT_TRUE(shipper.PruneShippedBefore(3).ok());
  EXPECT_EQ(ShippedLsns(), (std::vector<uint64_t>{3, 4}));
}

TEST_F(LogShipperTest, CorruptPrimarySegmentRefusesToShip) {
  auto writer = OpenWriter(/*segment_bytes=*/1);
  ASSERT_TRUE(writer->AppendTuple("readings", MakeReading("t", 10)).ok());
  ASSERT_TRUE(writer->Flush().ok());
  ASSERT_EQ(writer->sealed_segments().size(), 1u);
  const std::string seg_path =
      WalSegmentPath(primary_, writer->sealed_segments()[0]);

  // Flip one byte in the middle of the sealed segment.
  std::FILE* f = std::fopen(seg_path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 12, SEEK_SET), 0);
  std::fputc('X', f);
  std::fclose(f);

  LogShipper shipper(primary_, standby_);
  Status st = shipper.Ship();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(shipper.segments_shipped(), 0u);
  // Nothing corrupt reached the standby copy.
  EXPECT_TRUE(ShippedLsns().empty());
}

TEST_F(LogShipperTest, SegmentDisagreeingWithItsManifestRefusesToShip) {
  // Clean frames, but a manifest entry recording another size or LSN
  // range: the shipper refuses it at ship time instead of leaving the
  // standby to fail on it later.
  auto writer = OpenWriter(/*segment_bytes=*/1);
  ASSERT_TRUE(writer->AppendHeartbeat(100).ok());
  ASSERT_TRUE(writer->Flush().ok());
  ASSERT_EQ(writer->sealed_segments().size(), 1u);
  writer.reset();
  auto manifest = ReadWalManifest(primary_);
  ASSERT_TRUE(manifest.ok()) << manifest.status();
  const WalManifest clean = *manifest;
  for (int field = 0; field < 2; ++field) {
    WalManifest bad = clean;
    if (field == 0) {
      ++bad.segments[0].bytes;
    } else {
      ++bad.segments[0].last_lsn;
    }
    ASSERT_TRUE(WriteWalManifest(primary_, bad).ok());
    LogShipper shipper(primary_, standby_);
    EXPECT_TRUE(shipper.Ship().IsIoError()) << "field " << field;
    EXPECT_EQ(shipper.segments_shipped(), 0u);
    EXPECT_TRUE(ShippedLsns().empty());
  }
  ASSERT_TRUE(WriteWalManifest(primary_, clean).ok());
  LogShipper shipper(primary_, standby_);
  ASSERT_TRUE(shipper.Ship().ok());
  EXPECT_EQ(ShippedLsns(), std::vector<uint64_t>{1});
}

TEST_F(LogShipperTest, MeasureLagCountsUnshippedSegmentsAndLiveBytes) {
  auto writer = OpenWriter(/*segment_bytes=*/1);
  ASSERT_TRUE(writer->AppendHeartbeat(100).ok());
  ASSERT_TRUE(writer->AppendHeartbeat(200).ok());
  ASSERT_TRUE(writer->Flush().ok());

  LogShipper shipper(primary_, standby_);
  auto before = shipper.MeasureLagBytes();
  ASSERT_TRUE(before.ok());
  EXPECT_GT(*before, 0u);
  ASSERT_TRUE(shipper.Ship().ok());
  auto after = shipper.MeasureLagBytes();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 0u);
}

}  // namespace
}  // namespace eslev
