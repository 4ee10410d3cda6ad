#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "types/schema.h"
#include "types/tuple.h"

namespace eslev {
namespace {

SchemaPtr ReadingsSchema() {
  return Schema::Make({{"reader_id", TypeId::kString},
                       {"tag_id", TypeId::kString},
                       {"read_time", TypeId::kTimestamp}});
}

TEST(SchemaTest, FieldLookupIsCaseInsensitive) {
  auto s = ReadingsSchema();
  EXPECT_EQ(s->num_fields(), 3u);
  EXPECT_EQ(s->FindField("tag_id"), 1);
  EXPECT_EQ(s->FindField("TAG_ID"), 1);
  EXPECT_EQ(s->FindField("Read_Time"), 2);
  EXPECT_EQ(s->FindField("missing"), -1);
  EXPECT_TRUE(s->FieldIndex("missing").status().IsNotFound());
  EXPECT_EQ(*s->FieldIndex("reader_id"), 0u);
}

TEST(SchemaTest, ToStringAndEquals) {
  auto s = ReadingsSchema();
  EXPECT_EQ(s->ToString(),
            "reader_id VARCHAR, tag_id VARCHAR, read_time TIMESTAMP");
  EXPECT_TRUE(s->Equals(*ReadingsSchema()));
  auto other = Schema::Make({{"x", TypeId::kInt64}});
  EXPECT_FALSE(s->Equals(*other));
}

TEST(TupleTest, MakeTupleValidatesArity) {
  auto s = ReadingsSchema();
  auto bad = MakeTuple(s, {Value::String("r1")}, 0);
  EXPECT_TRUE(bad.status().IsInvalid());
}

TEST(TupleTest, MakeTupleValidatesTypes) {
  auto s = ReadingsSchema();
  auto bad = MakeTuple(
      s, {Value::Int(1), Value::String("t"), Value::Time(0)}, 0);
  EXPECT_TRUE(bad.status().IsTypeError());
}

TEST(TupleTest, MakeTupleCoercesIntToTimestampAndDouble) {
  auto s = Schema::Make({{"ts", TypeId::kTimestamp}, {"d", TypeId::kDouble}});
  auto t = MakeTuple(s, {Value::Int(5), Value::Int(2)}, 7);
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->value(0).type(), TypeId::kTimestamp);
  EXPECT_EQ(t->value(0).time_value(), 5);
  EXPECT_EQ(t->value(1).type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(t->value(1).double_value(), 2.0);
}

TEST(TupleTest, NullAllowedAnywhere) {
  auto s = ReadingsSchema();
  auto t = MakeTuple(s, {Value::Null(), Value::Null(), Value::Null()}, 3);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->value(0).is_null());
  EXPECT_EQ(t->ts(), 3);
}

TEST(TupleTest, ValueByNameAndToString) {
  auto s = ReadingsSchema();
  auto t = *MakeTuple(
      s, {Value::String("r1"), Value::String("tagA"), Value::Time(Seconds(2))},
      Seconds(2));
  EXPECT_EQ(t.ValueByName("tag_id")->string_value(), "tagA");
  EXPECT_EQ(t.ValueByName("TAG_ID")->string_value(), "tagA");
  EXPECT_TRUE(t.ValueByName("nope").status().IsNotFound());
  EXPECT_EQ(t.ToString(), "(r1, tagA, 2.000000s)@2.000000s");
}

TEST(TupleTest, Equals) {
  auto s = ReadingsSchema();
  auto a = *MakeTuple(
      s, {Value::String("r"), Value::String("t"), Value::Time(1)}, 1);
  auto b = *MakeTuple(
      s, {Value::String("r"), Value::String("t"), Value::Time(1)}, 1);
  auto c = *MakeTuple(
      s, {Value::String("r"), Value::String("t"), Value::Time(1)}, 2);
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
}

TEST(TupleTest, DefaultTupleIsEmpty) {
  const Tuple t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.values().empty());
  EXPECT_EQ(t.schema(), nullptr);
  EXPECT_EQ(t.ts(), 0);
  EXPECT_FALSE(t.synthesized());
  EXPECT_TRUE(t.Equals(Tuple()));
}

// The timestamp and the provenance bit belong to each copy: setting them
// on one copy leaves the others, and the values they share, unchanged.
TEST(TupleTest, CopiesKeepTheirOwnTimestampAndProvenance) {
  auto s = ReadingsSchema();
  const Tuple original = *MakeTuple(
      s, {Value::String("r1"), Value::String("tagA"), Value::Time(Seconds(2))},
      Seconds(2));
  Tuple clamped = original;
  clamped.set_ts(Seconds(5));
  Tuple synthesized = original;
  synthesized.set_synthesized(true);

  EXPECT_EQ(original.ts(), Seconds(2));
  EXPECT_FALSE(original.synthesized());
  EXPECT_EQ(clamped.ts(), Seconds(5));
  EXPECT_FALSE(clamped.synthesized());
  EXPECT_EQ(synthesized.ts(), Seconds(2));
  EXPECT_TRUE(synthesized.synthesized());
  for (const Tuple* t : {&original, static_cast<const Tuple*>(&clamped),
                         static_cast<const Tuple*>(&synthesized)}) {
    EXPECT_EQ(t->schema(), s);
    EXPECT_EQ(t->value(1).string_value(), "tagA");
  }
  EXPECT_EQ(clamped.ToString(), "(r1, tagA, 2.000000s)@5.000000s");
  EXPECT_TRUE(synthesized.Equals(original));
  EXPECT_FALSE(clamped.Equals(original));
}

// Handles to one row cross threads: each worker copies, reads and drops
// handles while the creator drops its own, and the row lives until the
// last handle goes (run under TSan in CI).
TEST(TupleTest, RowOutlivesItsCreatorAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kCopies = 5000;
  auto s = ReadingsSchema();
  std::optional<Tuple> creator = *MakeTuple(
      s, {Value::String("r1"), Value::String("tagA"), Value::Time(Seconds(2))},
      Seconds(2));
  std::vector<Tuple> handed(kThreads, *creator);
  std::vector<int> intact(kThreads, 0);
  std::atomic<int> started{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      const Tuple mine = std::move(handed[w]);
      started.fetch_add(1);
      std::vector<Tuple> held;
      for (int i = 0; i < kCopies; ++i) {
        Tuple copy = mine;
        copy.set_ts(i);
        if (copy.size() == 3 && copy.schema() == s &&
            copy.value(1).string_value() == "tagA" &&
            copy.values()[0].string_value() == "r1") {
          ++intact[w];
        }
        held.push_back(std::move(copy));
        if (held.size() == 16) held.clear();
      }
    });
  }
  while (started.load() < kThreads) std::this_thread::yield();
  creator.reset();
  for (std::thread& t : workers) t.join();
  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(intact[w], kCopies);
}

}  // namespace
}  // namespace eslev
