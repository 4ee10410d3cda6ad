// StandbyShard unit tests (replication/standby.h): bootstrap from a
// coordinated checkpoint, incremental WAL apply with shard-filtered
// routing, and the fault-injection matrix the promotion protocol leans
// on — a torn live tail is tolerated (the rest of the frame arrives
// next round), while mid-file corruption, a corrupt sealed segment, a
// tuple too short for its route, or an LSN gap permanently fail the
// standby (sticky health).

#include "replication/standby.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/sharded_engine.h"
#include "recovery/checkpoint.h"
#include "recovery/codec.h"

namespace eslev {
namespace {

constexpr char kDdl[] = R"sql(
  CREATE STREAM C1(readerid, tagid, tagtime);
  CREATE STREAM C2(readerid, tagid, tagtime);
)sql";
constexpr char kQuery[] =
    "SELECT C2.tagid, C1.tagtime, C2.tagtime FROM C1, C2 "
    "WHERE SEQ(C1, C2) AND C1.tagid=C2.tagid";

class StandbyShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "standby_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WalPath() const { return dir_ + "/" + kWalFileName; }

  /// Write a heartbeat-only WAL at `path`: LSNs `first..first+count-1`,
  /// timestamps 100, 200, ... Returns the file's bytes.
  std::string WriteHeartbeatWal(const std::string& path, uint64_t first,
                                int count) {
    WalOptions options;
    options.group_commit_bytes = 0;
    auto writer = WalWriter::Open(path, first, options);
    EXPECT_TRUE(writer.ok()) << writer.status();
    for (int i = 0; i < count; ++i) {
      EXPECT_TRUE(
          (*writer)->AppendHeartbeat(static_cast<Timestamp>(first + i) * 100)
              .ok());
    }
    EXPECT_TRUE((*writer)->Flush().ok());
    auto bytes = ReadFileAll(path);
    EXPECT_TRUE(bytes.ok());
    return *bytes;
  }

  std::string dir_;
};

TEST_F(StandbyShardTest, BootstrapsFromCheckpointAndAppliesWalSuffix) {
  std::vector<std::string> primary_rows;
  std::string output_stream;
  ShardRouting routing;
  {
    ShardedEngineOptions options;
    options.num_shards = 2;
    ShardedEngine primary(options);
    ASSERT_TRUE(primary.ExecuteScript(kDdl).ok());
    auto q = primary.RegisterQuery(kQuery);
    ASSERT_TRUE(q.ok()) << q.status();
    output_stream = q->output_stream;
    ASSERT_TRUE(primary
                    .Subscribe(output_stream,
                               [&](const Tuple& t) {
                                 primary_rows.push_back(t.ToString());
                               })
                    .ok());
    WalOptions wal_options;
    wal_options.group_commit_bytes = 0;
    ASSERT_TRUE(primary.EnableWal(WalPath(), wal_options).ok());
    auto push = [&](const std::string& stream, const std::string& tag,
                    Timestamp ts) {
      ASSERT_TRUE(primary
                      .Push(stream,
                            {Value::String("r"), Value::String(tag),
                             Value::Time(ts)},
                            ts)
                      .ok());
    };
    for (int i = 0; i < 6; ++i) {
      push("C1", "tag" + std::to_string(i), Seconds(i + 1));
    }
    ASSERT_TRUE(primary.Checkpoint(dir_).ok());
    for (int i = 0; i < 6; ++i) {
      push("C2", "tag" + std::to_string(i), Seconds(i + 10));
    }
    ASSERT_TRUE(primary.AdvanceTime(Seconds(60)).ok());
    ASSERT_TRUE(primary.Flush().ok());
    primary.DrainOutputs();
    routing = primary.routing();
  }

  StandbyShard standby({/*shard_id=*/0, routing, EngineOptions{}});
  ASSERT_TRUE(standby.ExecuteScript(kDdl).ok());
  ASSERT_TRUE(standby.RegisterQuery(kQuery).ok());
  ASSERT_TRUE(standby.Subscribe(output_stream).ok());
  ASSERT_TRUE(standby.Bootstrap(dir_).ok());

  auto chain = ReadWalChain(WalPath());
  ASSERT_TRUE(chain.ok()) << chain.status();
  ASSERT_FALSE(chain->records.empty());
  ASSERT_TRUE(standby.Apply(WalPath()).ok()) << standby.health();
  EXPECT_TRUE(standby.health().ok());
  // The standby consumed the whole chain and produced shard-0's share of
  // the post-checkpoint emissions (every SEQ match completes after the
  // C2 arrivals, which are all post-checkpoint).
  EXPECT_EQ(standby.applied_lsn(), chain->records.back().lsn);
  EXPECT_GT(standby.records_applied(), 0u);
  EXPECT_GT(standby.buffered_emissions(), 0u);
  EXPECT_LT(standby.buffered_emissions(), primary_rows.size() + 1);
  EXPECT_EQ(standby.applied_watermark(), Seconds(60));

  // Applying again is a no-op, not a re-emission.
  const size_t buffered = standby.buffered_emissions();
  ASSERT_TRUE(standby.Apply(WalPath()).ok());
  EXPECT_EQ(standby.buffered_emissions(), buffered);
}

TEST_F(StandbyShardTest, TornLiveTailIsToleratedAndCompletesLater) {
  const std::string full = WriteHeartbeatWal(dir_ + "/src.log", 1, 3);
  const std::string shipped = dir_ + "/shipped.log";
  ASSERT_TRUE(WriteFileAtomic(shipped, full.substr(0, full.size() - 3)).ok());

  StandbyShard standby({0, ShardRouting{}, EngineOptions{}});
  ASSERT_TRUE(standby.Apply(shipped).ok()) << standby.health();
  EXPECT_TRUE(standby.health().ok());
  EXPECT_EQ(standby.applied_lsn(), 2u);  // the third frame is torn

  // The rest of the frame arrives; the standby finishes the record.
  ASSERT_TRUE(WriteFileAtomic(shipped, full).ok());
  ASSERT_TRUE(standby.Apply(shipped).ok());
  EXPECT_EQ(standby.applied_lsn(), 3u);
  EXPECT_EQ(standby.applied_watermark(), 300);
}

TEST_F(StandbyShardTest, MidFileCorruptionIsStickyAndRefusesFurtherApplies) {
  std::string bytes = WriteHeartbeatWal(dir_ + "/src.log", 1, 3);
  bytes[bytes.size() / 2] ^= 0x40;  // flip a bit mid-file
  const std::string shipped = dir_ + "/shipped.log";
  ASSERT_TRUE(WriteFileAtomic(shipped, bytes).ok());

  StandbyShard standby({0, ShardRouting{}, EngineOptions{}});
  Status st = standby.Apply(shipped);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(standby.health().ok());
  // Sticky: even a now-clean chain is refused — the standby may have
  // diverged and must be rebuilt, not resumed.
  ASSERT_TRUE(
      WriteFileAtomic(shipped, WriteHeartbeatWal(dir_ + "/clean.log", 1, 3))
          .ok());
  EXPECT_FALSE(standby.Apply(shipped).ok());
}

TEST_F(StandbyShardTest, LsnGapFailsTheStandbyForGood) {
  const std::string a = WriteHeartbeatWal(dir_ + "/a.log", 1, 2);
  const std::string b = WriteHeartbeatWal(dir_ + "/b.log", 8, 1);
  const std::string shipped = dir_ + "/shipped.log";
  ASSERT_TRUE(WriteFileAtomic(shipped, a + b).ok());

  StandbyShard standby({0, ShardRouting{}, EngineOptions{}});
  Status st = standby.Apply(shipped);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("gap"), std::string::npos) << st;
  EXPECT_FALSE(standby.health().ok());
  EXPECT_EQ(standby.applied_lsn(), 2u);
}

TEST_F(StandbyShardTest, TupleTooShortForItsRouteFailsHealth) {
  // The primary routes C1 by tagid; a shipped C1 tuple without that
  // column cannot be routed, which is corruption, not a skip.
  ShardRouting routing;
  {
    ShardedEngineOptions options;
    options.num_shards = 2;
    ShardedEngine primary(options);
    ASSERT_TRUE(primary.ExecuteScript(kDdl).ok());
    routing = primary.routing();
  }
  WalOptions options;
  options.group_commit_bytes = 0;
  auto writer = WalWriter::Open(WalPath(), 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  const SchemaPtr one_column = Schema::Make({{"readerid", TypeId::kString}});
  ASSERT_TRUE((*writer)
                  ->AppendTuple("C1", Tuple(one_column, {Value::String("r")},
                                            Seconds(1)))
                  .ok());
  ASSERT_TRUE((*writer)->Flush().ok());

  StandbyShard standby({0, routing, EngineOptions{}});
  ASSERT_TRUE(standby.ExecuteScript(kDdl).ok());
  Status st = standby.Apply(WalPath());
  EXPECT_TRUE(st.IsIoError()) << st;
  EXPECT_FALSE(standby.health().ok());
  EXPECT_EQ(standby.applied_lsn(), 0u);
}

TEST_F(StandbyShardTest, CorruptShippedSealedSegmentFailsHealth) {
  WalOptions options;
  options.group_commit_bytes = 0;
  options.segment_bytes = 1;  // every record seals its own segment
  const std::string wal = dir_ + "/seg.log";
  auto writer = WalWriter::Open(wal, 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*writer)->AppendHeartbeat((i + 1) * 100).ok());
  }
  ASSERT_TRUE((*writer)->Flush().ok());
  ASSERT_EQ((*writer)->sealed_segments().size(), 3u);
  const std::string seg_path =
      WalSegmentPath(wal, (*writer)->sealed_segments()[1]);
  std::FILE* f = std::fopen(seg_path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 10, SEEK_SET), 0);
  std::fputc('X', f);
  std::fclose(f);

  StandbyShard standby({0, ShardRouting{}, EngineOptions{}});
  EXPECT_FALSE(standby.Apply(wal).ok());
  EXPECT_FALSE(standby.health().ok());
  // Only the segment before the corruption was applied.
  EXPECT_EQ(standby.applied_lsn(), 1u);
}

}  // namespace
}  // namespace eslev
