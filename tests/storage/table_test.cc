#include "storage/table.h"

#include <gtest/gtest.h>

namespace eslev {
namespace {

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::Make({{"tagid", TypeId::kString},
                            {"location", TypeId::kString},
                            {"start_time", TypeId::kTimestamp}});
    table_ = std::make_unique<Table>("object_movement", schema_);
  }

  Status Insert(const std::string& tag, const std::string& loc,
                Timestamp ts) {
    return table_->Insert(
        {Value::String(tag), Value::String(loc), Value::Time(ts)}, ts);
  }

  SchemaPtr schema_;
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, InsertAndScan) {
  ASSERT_TRUE(Insert("t1", "dock", Seconds(1)).ok());
  ASSERT_TRUE(Insert("t2", "gate", Seconds(2)).ok());
  EXPECT_EQ(table_->num_rows(), 2u);

  std::vector<std::string> tags;
  table_->Scan(nullptr,
               [&](const Tuple& r) { tags.push_back(r.value(0).string_value()); });
  EXPECT_EQ(tags, (std::vector<std::string>{"t1", "t2"}));

  size_t n = table_->Scan(
      [](const Tuple& r) { return r.value(1).string_value() == "gate"; },
      [](const Tuple&) {});
  EXPECT_EQ(n, 1u);
}

TEST_F(TableTest, InsertValidatesSchema) {
  EXPECT_TRUE(table_->Insert({Value::String("t1")}).IsInvalid());
  EXPECT_TRUE(
      table_->Insert({Value::Int(1), Value::String("x"), Value::Time(0)})
          .IsTypeError());
}

TEST_F(TableTest, Any) {
  ASSERT_TRUE(Insert("t1", "dock", 0).ok());
  EXPECT_TRUE(table_->Any(
      [](const Tuple& r) { return r.value(0).string_value() == "t1"; }));
  EXPECT_FALSE(table_->Any(
      [](const Tuple& r) { return r.value(0).string_value() == "zz"; }));
}

TEST_F(TableTest, ScanEqWithoutIndexFallsBackToScan) {
  ASSERT_TRUE(Insert("t1", "dock", 0).ok());
  ASSERT_TRUE(Insert("t1", "gate", 1).ok());
  ASSERT_TRUE(Insert("t2", "dock", 2).ok());
  int hits = 0;
  ASSERT_TRUE(table_->ScanEq("tagid", Value::String("t1"),
                             [&](const Tuple&) { ++hits; })
                  .ok());
  EXPECT_EQ(hits, 2);
  EXPECT_FALSE(table_->HasIndex("tagid"));
}

TEST_F(TableTest, HashIndexAcceleratedProbe) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(Insert("tag" + std::to_string(i % 10), "loc", i).ok());
  }
  ASSERT_TRUE(table_->CreateIndex("tagid").ok());
  EXPECT_TRUE(table_->HasIndex("tagid"));
  int hits = 0;
  ASSERT_TRUE(table_->ScanEq("tagid", Value::String("tag3"),
                             [&](const Tuple&) { ++hits; })
                  .ok());
  EXPECT_EQ(hits, 10);
  // Index stays consistent across further inserts.
  ASSERT_TRUE(Insert("tag3", "newloc", 1000).ok());
  hits = 0;
  ASSERT_TRUE(table_->ScanEq("tagid", Value::String("tag3"),
                             [&](const Tuple&) { ++hits; })
                  .ok());
  EXPECT_EQ(hits, 11);
}

TEST_F(TableTest, ScanEqUnknownColumn) {
  EXPECT_TRUE(table_->ScanEq("nope", Value::Int(1), [](const Tuple&) {})
                  .IsNotFound());
}

TEST_F(TableTest, UpdateRewritesMatchingRows) {
  ASSERT_TRUE(Insert("t1", "dock", 0).ok());
  ASSERT_TRUE(Insert("t2", "dock", 1).ok());
  auto n = table_->Update(
      [](const Tuple& r) { return r.value(0).string_value() == "t1"; },
      "location", Value::String("gate"));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  int gates = 0;
  ASSERT_TRUE(table_->ScanEq("location", Value::String("gate"),
                             [&](const Tuple&) { ++gates; })
                  .ok());
  EXPECT_EQ(gates, 1);
}

// Rows are shared, immutable values: a row copied out of a Scan before
// an UPDATE keeps the values it was read with.
TEST_F(TableTest, RowsCopiedBeforeUpdateKeepTheirValues) {
  ASSERT_TRUE(Insert("t1", "dock", Seconds(1)).ok());
  Tuple copied;
  table_->Scan(nullptr, [&](const Tuple& r) { copied = r; });
  ASSERT_TRUE(table_
                  ->Update([](const Tuple&) { return true; }, "location",
                           Value::String("gate"))
                  .ok());
  EXPECT_EQ(copied.value(1).string_value(), "dock");
  EXPECT_EQ(copied.ts(), Seconds(1));
  std::vector<std::string> locations;
  table_->Scan(nullptr, [&](const Tuple& r) {
    locations.push_back(r.value(1).string_value());
    EXPECT_EQ(r.ts(), Seconds(1));
  });
  EXPECT_EQ(locations, (std::vector<std::string>{"gate"}));
}

TEST_F(TableTest, UpdateMaintainsIndexOnIndexedColumn) {
  ASSERT_TRUE(Insert("t1", "dock", 0).ok());
  ASSERT_TRUE(table_->CreateIndex("location").ok());
  ASSERT_TRUE(table_
                  ->Update([](const Tuple&) { return true; }, "location",
                           Value::String("gate"))
                  .ok());
  int hits = 0;
  ASSERT_TRUE(table_->ScanEq("location", Value::String("gate"),
                             [&](const Tuple&) { ++hits; })
                  .ok());
  EXPECT_EQ(hits, 1);
  hits = 0;
  ASSERT_TRUE(table_->ScanEq("location", Value::String("dock"),
                             [&](const Tuple&) { ++hits; })
                  .ok());
  EXPECT_EQ(hits, 0);
}

TEST_F(TableTest, DeleteMaintainsIndex) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(Insert("t" + std::to_string(i), "dock", i).ok());
  }
  ASSERT_TRUE(table_->CreateIndex("tagid").ok());
  size_t removed = table_->Delete(
      [](const Tuple& r) { return r.ts() < 5; });
  EXPECT_EQ(removed, 5u);
  EXPECT_EQ(table_->num_rows(), 5u);
  int hits = 0;
  ASSERT_TRUE(table_->ScanEq("tagid", Value::String("t7"),
                             [&](const Tuple&) { ++hits; })
                  .ok());
  EXPECT_EQ(hits, 1);
  hits = 0;
  ASSERT_TRUE(table_->ScanEq("tagid", Value::String("t2"),
                             [&](const Tuple&) { ++hits; })
                  .ok());
  EXPECT_EQ(hits, 0);
}

}  // namespace
}  // namespace eslev
