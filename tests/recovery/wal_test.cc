// Event WAL unit tests (recovery/wal.h): append/read round-trips, LSN
// assignment, group commit, segment rotation + chain reads,
// checkpoint-driven whole-segment truncation, and the fault-injection
// cases — torn final frame, mid-file corruption, corrupt sealed segments,
// crafted frames (oversized counts, a heartbeat naming a stream).

#include "recovery/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "types/schema.h"
#include "types/value.h"

namespace eslev {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "wal_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    RemoveChainFiles();
    schema_ = Schema::Make({{"reader_id", TypeId::kString},
                            {"tag_id", TypeId::kString},
                            {"read_time", TypeId::kTimestamp}});
  }
  void TearDown() override { RemoveChainFiles(); }

  // Remove the live file, the manifest sidecar, and every sealed segment.
  void RemoveChainFiles() {
    std::remove(path_.c_str());
    std::remove(WalManifestPath(path_).c_str());
    const std::filesystem::path live(path_);
    const std::string prefix = live.filename().string() + ".";
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(live.parent_path(), ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0 && name.size() > 4 &&
          name.substr(name.size() - 4) == ".seg") {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }

  Tuple MakeReading(const std::string& tag, Timestamp ts) const {
    return Tuple(schema_,
                 {Value::String("r1"), Value::String(tag), Value::Time(ts)},
                 ts);
  }

  std::string path_;
  SchemaPtr schema_;
};

TEST_F(WalTest, MissingFileReadsAsEmptyCleanLog) {
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->records.empty());
  EXPECT_EQ(read->valid_bytes, 0u);
  EXPECT_FALSE(read->torn_tail);
}

TEST_F(WalTest, AppendFlushReadRoundTrip) {
  auto writer = WalWriter::Open(path_, 1);
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_EQ(*(*writer)->AppendTuple("readings", MakeReading("t1", 10)), 1u);
  EXPECT_EQ(*(*writer)->AppendHeartbeat(20), 2u);
  EXPECT_EQ(*(*writer)->AppendTuple("readings", MakeReading("t2", 30)), 3u);
  ASSERT_TRUE((*writer)->Flush().ok());
  EXPECT_EQ((*writer)->records_appended(), 3u);
  EXPECT_EQ((*writer)->next_lsn(), 4u);

  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_FALSE(read->torn_tail);
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_EQ(read->records[0].kind, WalRecordKind::kTuple);
  EXPECT_EQ(read->records[0].lsn, 1u);
  EXPECT_EQ(read->records[0].stream, "readings");
  ASSERT_TRUE(read->records[0].tuple.has_value());
  EXPECT_EQ(read->records[0].tuple->ToString(),
            MakeReading("t1", 10).ToString());
  EXPECT_EQ(read->records[1].kind, WalRecordKind::kHeartbeat);
  EXPECT_EQ(read->records[1].stream, "");
  EXPECT_EQ(read->records[1].ts, 20);
  EXPECT_EQ(read->records[2].lsn, 3u);
}

TEST_F(WalTest, GroupCommitBuffersUntilThreshold) {
  WalOptions options;
  options.group_commit_bytes = 1 << 20;  // nothing auto-flushes below 1 MiB
  auto writer = WalWriter::Open(path_, 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t1", 10)).ok());
  // Not flushed yet: a reader sees an empty (or shorter) file.
  auto before = ReadWal(path_);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->records.empty());
  ASSERT_TRUE((*writer)->Flush().ok());
  EXPECT_EQ((*writer)->group_commits(), 1u);
  auto after = ReadWal(path_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->records.size(), 1u);
  EXPECT_GT((*writer)->bytes_written(), 0u);
}

TEST_F(WalTest, ZeroThresholdFlushesEveryAppend) {
  WalOptions options;
  options.group_commit_bytes = 0;
  auto writer = WalWriter::Open(path_, 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t1", 10)).ok());
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 1u);
}

TEST_F(WalTest, ReopenContinuesLsnSequence) {
  {
    auto writer = WalWriter::Open(path_, 1);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t1", 10)).ok());
    ASSERT_TRUE((*writer)->Flush().ok());
  }
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 1u);
  auto writer = WalWriter::Open(path_, read->records.back().lsn + 1);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(*(*writer)->AppendTuple("readings", MakeReading("t2", 20)), 2u);
  ASSERT_TRUE((*writer)->Flush().ok());
  auto again = ReadWal(path_);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->records.size(), 2u);
  EXPECT_EQ(again->records[1].lsn, 2u);
}

TEST_F(WalTest, TruncateBeforeDropsWholeSealedSegments) {
  WalOptions options;
  options.group_commit_bytes = 0;  // every append flushes...
  options.segment_bytes = 1;       // ...and every flush seals
  auto writer = WalWriter::Open(path_, 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        (*writer)->AppendTuple("readings", MakeReading("t", i * 10)).ok());
  }
  ASSERT_EQ((*writer)->sealed_segments().size(), 5u);
  ASSERT_TRUE((*writer)->TruncateBefore(4).ok());
  // Segments holding only LSNs 1..3 are deleted as whole files; nothing
  // is rewritten.
  EXPECT_EQ((*writer)->segments_deleted(), 3u);
  ASSERT_EQ((*writer)->sealed_segments().size(), 2u);
  EXPECT_EQ((*writer)->sealed_segments().front().first_lsn, 4u);
  EXPECT_EQ(*(*writer)->AppendTuple("readings", MakeReading("t6", 60)), 6u);
  auto chain = ReadWalChain(path_);
  ASSERT_TRUE(chain.ok()) << chain.status();
  ASSERT_EQ(chain->records.size(), 3u);
  EXPECT_EQ(chain->records.front().lsn, 4u);
  EXPECT_EQ(chain->records.back().lsn, 6u);
}

TEST_F(WalTest, TruncateBeforeNeverRewritesTheLiveFile) {
  // No rotation: truncation has nothing to delete, and records below the
  // cut stay in the live file — replay skips them by LSN instead.
  auto writer = WalWriter::Open(path_, 1);
  ASSERT_TRUE(writer.ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(
        (*writer)->AppendTuple("readings", MakeReading("t", i * 10)).ok());
  }
  ASSERT_TRUE((*writer)->TruncateBefore(4).ok());
  EXPECT_EQ((*writer)->segments_deleted(), 0u);
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 5u);
  EXPECT_EQ(*(*writer)->AppendTuple("readings", MakeReading("t6", 60)), 6u);
}

TEST_F(WalTest, SegmentRotationSealsAtThresholdAndChainReadSpansAll) {
  WalOptions options;
  options.group_commit_bytes = 0;
  options.segment_bytes = 100;  // a few records per segment
  auto writer = WalWriter::Open(path_, 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (int i = 1; i <= 12; ++i) {
    ASSERT_TRUE(
        (*writer)->AppendTuple("readings", MakeReading("t", i * 10)).ok());
  }
  EXPECT_GE((*writer)->segments_sealed(), 2u);
  const auto& sealed = (*writer)->sealed_segments();
  ASSERT_FALSE(sealed.empty());
  // Manifest entries are contiguous in LSN and match the files on disk.
  uint64_t expect_first = 1;
  for (const WalSegmentInfo& seg : sealed) {
    EXPECT_EQ(seg.first_lsn, expect_first);
    EXPECT_GE(seg.last_lsn, seg.first_lsn);
    expect_first = seg.last_lsn + 1;
    std::error_code ec;
    EXPECT_EQ(std::filesystem::file_size(WalSegmentPath(path_, seg), ec),
              seg.bytes);
  }
  auto chain = ReadWalChain(path_);
  ASSERT_TRUE(chain.ok()) << chain.status();
  ASSERT_EQ(chain->records.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(chain->records[i].lsn, static_cast<uint64_t>(i + 1));
  }
  EXPECT_FALSE(chain->live_torn_tail);
}

TEST_F(WalTest, ReopenContinuesAcrossSealedSegments) {
  WalOptions options;
  options.group_commit_bytes = 0;
  options.segment_bytes = 1;
  {
    auto writer = WalWriter::Open(path_, 1, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t1", 10)).ok());
    ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t2", 20)).ok());
  }
  auto chain = ReadWalChain(path_);
  ASSERT_TRUE(chain.ok()) << chain.status();
  ASSERT_EQ(chain->records.size(), 2u);
  auto writer =
      WalWriter::Open(path_, chain->records.back().lsn + 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  EXPECT_EQ((*writer)->sealed_segments().size(), 2u);
  EXPECT_EQ(*(*writer)->AppendTuple("readings", MakeReading("t3", 30)), 3u);
  auto again = ReadWalChain(path_);
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_EQ(again->records.size(), 3u);
  EXPECT_EQ(again->records.back().lsn, 3u);
}

TEST_F(WalTest, SealActiveSegmentHandsOffBelowThreshold) {
  WalOptions options;
  options.group_commit_bytes = 0;
  options.segment_bytes = 1 << 20;  // far from the threshold
  auto writer = WalWriter::Open(path_, 1, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t1", 10)).ok());
  ASSERT_TRUE((*writer)->SealActiveSegment().ok());
  ASSERT_EQ((*writer)->sealed_segments().size(), 1u);
  EXPECT_EQ((*writer)->live_bytes(), 0u);
  // Sealing an empty live file is a no-op.
  ASSERT_TRUE((*writer)->SealActiveSegment().ok());
  EXPECT_EQ((*writer)->sealed_segments().size(), 1u);
  ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t2", 20)).ok());
  auto chain = ReadWalChain(path_);
  ASSERT_TRUE(chain.ok()) << chain.status();
  ASSERT_EQ(chain->records.size(), 2u);
}

TEST_F(WalTest, OrphanSegmentFromCrashBetweenRenameAndManifestIsAdopted) {
  WalOptions options;
  options.group_commit_bytes = 0;
  options.segment_bytes = 1;
  {
    auto writer = WalWriter::Open(path_, 1, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t1", 10)).ok());
    ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t2", 20)).ok());
  }
  // Simulate the crash window: roll the manifest back to before the
  // second seal, leaving wal.log.000002.seg on disk unrecorded.
  auto manifest = ReadWalManifest(path_);
  ASSERT_TRUE(manifest.ok());
  ASSERT_EQ(manifest->segments.size(), 2u);
  WalManifest rolled = *manifest;
  rolled.segments.pop_back();
  rolled.next_segment_id = 2;
  ASSERT_TRUE(WriteWalManifest(path_, rolled).ok());

  auto listed = ListWalSegments(path_);
  ASSERT_TRUE(listed.ok()) << listed.status();
  ASSERT_EQ(listed->segments.size(), 2u);
  EXPECT_EQ(listed->segments.back().first_lsn, 2u);
  EXPECT_EQ(listed->next_segment_id, 3u);

  // Reopening the writer persists the adoption.
  auto writer = WalWriter::Open(path_, 3, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  auto healed = ReadWalManifest(path_);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed->segments.size(), 2u);
  EXPECT_EQ(healed->next_segment_id, 3u);
}

TEST_F(WalTest, CorruptSealedSegmentFailsChainRead) {
  WalOptions options;
  options.group_commit_bytes = 0;
  options.segment_bytes = 1;
  auto writer = WalWriter::Open(path_, 1, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t1", 10)).ok());
  ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t2", 20)).ok());
  const std::string seg_path =
      WalSegmentPath(path_, (*writer)->sealed_segments().front());
  auto bytes = ReadFileAll(seg_path);
  ASSERT_TRUE(bytes.ok());

  // A flipped byte anywhere in a sealed segment is corruption.
  std::string flipped = *bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(seg_path, flipped).ok());
  EXPECT_TRUE(ReadWalChain(path_).status().IsIoError());

  // So is a truncated (torn-looking) sealed segment: it was complete
  // when renamed, so a tear cannot be a crash artifact.
  ASSERT_TRUE(
      WriteFileAtomic(seg_path, bytes->substr(0, bytes->size() - 3)).ok());
  EXPECT_TRUE(ReadWalChain(path_).status().IsIoError());

  // Restored intact, the chain reads clean again.
  ASSERT_TRUE(WriteFileAtomic(seg_path, *bytes).ok());
  auto chain = ReadWalChain(path_);
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_EQ(chain->records.size(), 2u);
}

TEST_F(WalTest, TornLiveTailIsToleratedByChainRead) {
  WalOptions options;
  options.group_commit_bytes = 0;
  options.segment_bytes = 1;
  {
    auto writer = WalWriter::Open(path_, 1, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t1", 10)).ok());
    // Below the flush threshold nothing seals mid-record; write a second
    // record into the fresh live file, then tear it.
    options.segment_bytes = 1 << 20;
  }
  auto writer = WalWriter::Open(path_, 2, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t2", 20)).ok());
  ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t3", 30)).ok());
  writer->reset();  // close the file before tearing it
  auto live = ReadFileAll(path_);
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(
      WriteFileAtomic(path_, live->substr(0, live->size() - 5)).ok());
  auto chain = ReadWalChain(path_);
  ASSERT_TRUE(chain.ok()) << chain.status();
  EXPECT_TRUE(chain->live_torn_tail);
  ASSERT_EQ(chain->records.size(), 2u);  // sealed t1 + intact live t2
  EXPECT_EQ(chain->records.back().lsn, 2u);
}

TEST_F(WalTest, TornFinalFrameIsToleratedAndReported) {
  {
    auto writer = WalWriter::Open(path_, 1);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t1", 10)).ok());
    ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t2", 20)).ok());
    ASSERT_TRUE((*writer)->Flush().ok());
  }
  // Crash mid-append: chop bytes off the end of the file.
  auto bytes = ReadFileAll(path_);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      WriteFileAtomic(path_, bytes->substr(0, bytes->size() - 7)).ok());
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->torn_tail);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].lsn, 1u);
  EXPECT_LT(read->valid_bytes, bytes->size());

  // Reopening with truncate_to_bytes drops the tear for good; the next
  // append produces a clean log again.
  WalOptions options;
  options.truncate_to_bytes = read->valid_bytes;
  auto writer = WalWriter::Open(path_, 2, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t3", 30)).ok());
  ASSERT_TRUE((*writer)->Flush().ok());
  auto again = ReadWal(path_);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE(again->torn_tail);
  ASSERT_EQ(again->records.size(), 2u);
  EXPECT_EQ(again->records[1].lsn, 2u);
}

TEST_F(WalTest, MidFileCorruptionIsAnError) {
  {
    auto writer = WalWriter::Open(path_, 1);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t1", 10)).ok());
    ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t2", 20)).ok());
    ASSERT_TRUE((*writer)->Flush().ok());
  }
  auto bytes = ReadFileAll(path_);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[10] ^= 0x01;  // inside the first record, with data after it
  ASSERT_TRUE(WriteFileAtomic(path_, corrupted).ok());
  EXPECT_TRUE(ReadWal(path_).status().IsIoError());
}

TEST_F(WalTest, NonMonotonicLsnsAreRejected) {
  // Two separate writers both starting at LSN 1 produce a log whose
  // second record repeats the LSN — the reader must refuse it.
  {
    auto writer = WalWriter::Open(path_, 1);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t1", 10)).ok());
    ASSERT_TRUE((*writer)->Flush().ok());
  }
  {
    auto writer = WalWriter::Open(path_, 1);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t2", 20)).ok());
    ASSERT_TRUE((*writer)->Flush().ok());
  }
  EXPECT_TRUE(ReadWal(path_).status().IsIoError());
}

// Crafted CRC-valid frames whose decoded counts claim far more items
// than the frame holds. Reserving storage for such a count before
// reading any item ended the process with std::bad_alloc; the reader
// must return an IoError instead.
TEST_F(WalTest, InlineSchemaFieldCountBeyondFrameIsAnError) {
  BinaryEncoder payload;
  payload.PutU8(static_cast<uint8_t>(WalRecordKind::kTuple));
  payload.PutU64(1);            // lsn
  payload.PutString("");        // stream
  payload.PutU8(0);             // inline schema definition
  payload.PutU32(0xFFFFFFFFu);  // field count
  payload.PutString("rid");     // the only field actually present
  payload.PutU8(static_cast<uint8_t>(TypeId::kString));
  std::string frame;
  AppendFrame(payload.buffer(), &frame);
  ASSERT_EQ(frame.size(), 34u);
  ASSERT_TRUE(WriteFileAtomic(path_, frame).ok());
  EXPECT_TRUE(ReadWal(path_).status().IsIoError());
  EXPECT_TRUE(ReadWalChain(path_).status().IsIoError());
}

TEST_F(WalTest, TupleArityBeyondFrameIsAnError) {
  BinaryEncoder payload;
  payload.PutU8(static_cast<uint8_t>(WalRecordKind::kTuple));
  payload.PutU64(1);                       // lsn
  payload.PutString("");                   // stream
  payload.PutSchema(nullptr);              // no schema
  payload.PutI64(10);                      // ts
  payload.PutU32(0xFFFFFFFFu);             // arity
  payload.PutValue(Value::String("abc"));  // the only value actually present
  std::string frame;
  AppendFrame(payload.buffer(), &frame);
  ASSERT_EQ(frame.size(), 42u);
  ASSERT_TRUE(WriteFileAtomic(path_, frame).ok());
  EXPECT_TRUE(ReadWal(path_).status().IsIoError());
  EXPECT_TRUE(ReadWalChain(path_).status().IsIoError());
}

// A crafted CRC-valid heartbeat frame that names a stream. Heartbeats
// are engine-wide, so the decoder refuses the frame rather than leave
// every reader a case it would have to handle.
TEST_F(WalTest, HeartbeatNamingAStreamIsAnError) {
  BinaryEncoder payload;
  payload.PutU8(static_cast<uint8_t>(WalRecordKind::kHeartbeat));
  payload.PutU64(1);        // lsn
  payload.PutString("C1");  // stream: a heartbeat names none
  payload.PutI64(42);       // ts
  std::string frame;
  AppendFrame(payload.buffer(), &frame);
  ASSERT_EQ(frame.size(), 31u);
  ASSERT_TRUE(WriteFileAtomic(path_, frame).ok());
  EXPECT_TRUE(ReadWal(path_).status().IsIoError());
  EXPECT_TRUE(ReadWalChain(path_).status().IsIoError());
  EXPECT_TRUE(DecodeWalFrames(frame.data(), frame.size()).status().IsIoError());
}

TEST_F(WalTest, DestructorFlushesPending) {
  {
    WalOptions options;
    options.group_commit_bytes = 1 << 20;
    auto writer = WalWriter::Open(path_, 1, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AppendTuple("readings", MakeReading("t1", 10)).ok());
  }  // destructor: best-effort flush
  auto read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 1u);
}

}  // namespace
}  // namespace eslev
