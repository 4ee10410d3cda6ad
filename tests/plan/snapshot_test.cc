// Snapshot executor: multi-source joins, correlated EXISTS, aggregates,
// ORDER BY and LIMIT — the ad-hoc query surface of §2.1.

#include <gtest/gtest.h>

#include <limits>

#include "core/engine.h"

namespace eslev {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions options;
    options.default_retention = Hours(1);
    engine_ = std::make_unique<Engine>(options);
    ASSERT_TRUE(engine_
                    ->ExecuteScript(R"sql(
      CREATE STREAM sightings(patient, loc, seen_time);
      CREATE TABLE wards(ward, floor INT);
    )sql")
                    .ok());
    Table* wards = engine_->FindTable("wards");
    ASSERT_TRUE(
        wards->Insert({Value::String("icu"), Value::Int(3)}).ok());
    ASSERT_TRUE(
        wards->Insert({Value::String("ward-1"), Value::Int(1)}).ok());
    ASSERT_TRUE(
        wards->Insert({Value::String("radiology"), Value::Int(0)}).ok());

    Push("alice", "ward-1", Minutes(1));
    Push("bob", "icu", Minutes(2));
    Push("alice", "radiology", Minutes(3));
    Push("carol", "icu", Minutes(4));
    Push("alice", "icu", Minutes(5));
  }

  void Push(const std::string& p, const std::string& loc, Timestamp ts) {
    ASSERT_TRUE(engine_
                    ->Push("sightings",
                           {Value::String(p), Value::String(loc),
                            Value::Time(ts)},
                           ts)
                    .ok());
  }

  std::vector<Tuple> Run(const std::string& sql) {
    auto r = engine_->ExecuteSnapshot(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status();
    return r.ok() ? *r : std::vector<Tuple>{};
  }

  std::unique_ptr<Engine> engine_;
};

TEST_F(SnapshotTest, OrderByTimestampDescending) {
  auto rows = Run(
      "SELECT loc, seen_time FROM sightings WHERE patient = 'alice' "
      "ORDER BY seen_time DESC");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].value(0).string_value(), "icu");
  EXPECT_EQ(rows[1].value(0).string_value(), "radiology");
  EXPECT_EQ(rows[2].value(0).string_value(), "ward-1");
}

// A snapshot's rows are the values read when it ran: a later UPDATE of
// the table leaves them as they were.
TEST_F(SnapshotTest, ResultRowsKeepTheirValuesAcrossATableUpdate) {
  const auto before = Run("SELECT * FROM wards WHERE ward = 'icu'");
  ASSERT_EQ(before.size(), 1u);
  ASSERT_TRUE(engine_->FindTable("wards")
                  ->Update(
                      [](const Tuple& r) {
                        return r.value(0).string_value() == "icu";
                      },
                      "floor", Value::Int(4))
                  .ok());
  EXPECT_EQ(before[0].value(1).int_value(), 3);
  const auto after = Run("SELECT * FROM wards WHERE ward = 'icu'");
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].value(1).int_value(), 4);
}

TEST_F(SnapshotTest, LimitCapsOutput) {
  auto rows = Run(
      "SELECT loc FROM sightings WHERE patient = 'alice' "
      "ORDER BY seen_time DESC LIMIT 1");
  ASSERT_EQ(rows.size(), 1u);
  // "Where is Alice right now?" — the paper's physician query.
  EXPECT_EQ(rows[0].value(0).string_value(), "icu");
}

TEST_F(SnapshotTest, MultiKeyOrdering) {
  auto rows = Run("SELECT patient, loc FROM sightings "
                  "ORDER BY patient ASC, seen_time DESC");
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].value(0).string_value(), "alice");
  EXPECT_EQ(rows[0].value(1).string_value(), "icu");  // alice's latest
  EXPECT_EQ(rows[3].value(0).string_value(), "bob");
  EXPECT_EQ(rows[4].value(0).string_value(), "carol");
}

TEST_F(SnapshotTest, StreamTableJoinSnapshot) {
  auto rows = Run(
      "SELECT s.patient, s.loc, w.floor FROM sightings AS s, wards AS w "
      "WHERE w.ward = s.loc AND s.patient = 'bob'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value(2).int_value(), 3);
}

TEST_F(SnapshotTest, CorrelatedNotExistsLatestSighting) {
  // Patients' latest sighting: no later sighting of the same patient.
  auto rows = Run(R"sql(
    SELECT s1.patient, s1.loc FROM sightings AS s1
    WHERE NOT EXISTS
      (SELECT * FROM sightings AS s2
       WHERE s2.patient = s1.patient AND s2.seen_time > s1.seen_time)
    ORDER BY patient
  )sql");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].value(0).string_value(), "alice");
  EXPECT_EQ(rows[0].value(1).string_value(), "icu");
  EXPECT_EQ(rows[1].value(0).string_value(), "bob");
  EXPECT_EQ(rows[2].value(0).string_value(), "carol");
}

TEST_F(SnapshotTest, GroupByWithOrderAndLimit) {
  auto rows = Run(
      "SELECT loc, count(patient) FROM sightings "
      "GROUP BY loc ORDER BY count(patient) DESC, loc LIMIT 2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].value(0).string_value(), "icu");
  EXPECT_EQ(rows[0].value(1).int_value(), 3);
}

TEST_F(SnapshotTest, AggregateOverEmptyInput) {
  auto rows = Run("SELECT count(patient) FROM sightings WHERE loc = 'x'");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value(0).int_value(), 0);
}

TEST_F(SnapshotTest, WindowedStreamSource) {
  // Only sightings from the last 90 seconds of stream time.
  auto rows = Run(
      "SELECT patient FROM TABLE(sightings OVER "
      "(RANGE 90 SECONDS PRECEDING CURRENT)) AS s");
  ASSERT_EQ(rows.size(), 2u);  // minutes 4 and 5
}

TEST_F(SnapshotTest, ContinuousQueriesRejectOrderBy) {
  EXPECT_TRUE(engine_
                  ->RegisterQuery(
                      "SELECT patient FROM sightings ORDER BY patient")
                  .status()
                  .IsNotImplemented());
  EXPECT_TRUE(engine_->RegisterQuery("SELECT patient FROM sightings LIMIT 5")
                  .status()
                  .IsNotImplemented());
}

// ORDER BY needs a strict weak ordering: NaN sorts above every number
// (DESIGN.md §5), and equal NaNs keep their arrival order.
TEST(SnapshotNanTest, OrderBySortsNanAboveEveryNumber) {
  EngineOptions options;
  options.default_retention = Hours(1);
  Engine engine(options);
  ASSERT_TRUE(
      engine.ExecuteScript("CREATE STREAM temps(sensor, v DOUBLE, seen_time);")
          .ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values = {3, nan, -1, nan, 2, 7, nan, 0};
  for (size_t i = 0; i < values.size(); ++i) {
    const Timestamp ts = Seconds(static_cast<int64_t>(i) + 1);
    const Status pushed =
        engine.Push("temps",
                    {Value::String("s" + std::to_string(i)),
                     Value::Double(values[i]), Value::Time(ts)},
                    ts);
    ASSERT_TRUE(pushed.ok()) << pushed;
  }
  const auto sensors = [&](const std::string& sql) {
    auto rows = engine.ExecuteSnapshot(sql);
    EXPECT_TRUE(rows.ok()) << rows.status();
    std::vector<std::string> out;
    if (!rows.ok()) return out;
    for (const Tuple& r : *rows) out.push_back(r.value(0).string_value());
    return out;
  };
  EXPECT_EQ(sensors("SELECT sensor FROM temps ORDER BY v"),
            (std::vector<std::string>{"s2", "s7", "s4", "s0", "s5", "s1",
                                      "s3", "s6"}));
  EXPECT_EQ(sensors("SELECT sensor FROM temps ORDER BY v DESC"),
            (std::vector<std::string>{"s1", "s3", "s6", "s5", "s0", "s4",
                                      "s7", "s2"}));
  EXPECT_EQ(sensors("SELECT sensor FROM temps WHERE v = 7"),
            (std::vector<std::string>{"s5"}));
}

// GROUP BY a DOUBLE groups by exact value: keys that agree to six
// decimals, or that print as 0.000000, stay apart.
TEST(SnapshotGroupKeyTest, DoubleKeysGroupByExactValue) {
  EngineOptions options;
  options.default_retention = Hours(1);
  Engine engine(options);
  ASSERT_TRUE(
      engine.ExecuteScript("CREATE STREAM temps(sensor, v DOUBLE, seen_time);")
          .ok());
  const std::vector<double> values = {0.1234561, 0.1234562, 1e-7, 0.0};
  for (size_t i = 0; i < values.size(); ++i) {
    const Timestamp ts = Seconds(static_cast<int64_t>(i) + 1);
    ASSERT_TRUE(engine
                    .Push("temps",
                          {Value::String("s"), Value::Double(values[i]),
                           Value::Time(ts)},
                          ts)
                    .ok());
  }
  auto rows = engine.ExecuteSnapshot(
      "SELECT v, COUNT(*) FROM temps GROUP BY v ORDER BY v");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 4u);
  const std::vector<double> sorted = {0.0, 1e-7, 0.1234561, 0.1234562};
  for (size_t i = 0; i < rows->size(); ++i) {
    EXPECT_EQ((*rows)[i].value(0).double_value(), sorted[i]) << i;
    EXPECT_EQ((*rows)[i].value(1).int_value(), 1) << i;
  }
}

}  // namespace
}  // namespace eslev
