#include "rfid/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace eslev {
namespace rfid {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs the tests of this fixture as parallel
  // processes, which must not write one another's file.
  void SetUp() override {
    path_ = ::testing::TempDir() + "/eslev_trace_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(TraceIoTest, RoundTripPackingWorkload) {
  PackingWorkloadOptions options;
  options.num_cases = 20;
  auto original = MakePackingWorkload(options);

  ASSERT_TRUE(SaveTraceCsv(original, path_).ok());

  std::map<std::string, SchemaPtr> schemas = {{"R1", ReaderSchema()},
                                              {"R2", ReaderSchema()}};
  auto loaded = LoadTraceCsv(path_, schemas);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->events.size(), original.events.size());
  for (size_t i = 0; i < original.events.size(); ++i) {
    EXPECT_EQ(loaded->events[i].stream, original.events[i].stream);
    EXPECT_TRUE(loaded->events[i].tuple.Equals(original.events[i].tuple))
        << "event " << i;
  }
}

TEST_F(TraceIoTest, QuotingAndNulls) {
  auto schema = Schema::Make({{"name", TypeId::kString},
                              {"v", TypeId::kInt64},
                              {"d", TypeId::kDouble},
                              {"flag", TypeId::kBool}});
  Workload w;
  w.events.push_back(
      {"s", Tuple(schema,
                  {Value::String("has,comma and \"quote\""), Value::Int(-5),
                   Value::Double(2.5), Value::Bool(true)},
                  7)});
  w.events.push_back(
      {"s", Tuple(schema,
                  {Value::Null(), Value::Null(), Value::Null(),
                   Value::Bool(false)},
                  9)});
  ASSERT_TRUE(SaveTraceCsv(w, path_).ok());

  auto loaded = LoadTraceCsv(path_, {{"s", schema}});
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->events.size(), 2u);
  EXPECT_EQ(loaded->events[0].tuple.value(0).string_value(),
            "has,comma and \"quote\"");
  EXPECT_EQ(loaded->events[0].tuple.value(1).int_value(), -5);
  EXPECT_DOUBLE_EQ(loaded->events[0].tuple.value(2).double_value(), 2.5);
  EXPECT_TRUE(loaded->events[0].tuple.value(3).bool_value());
  EXPECT_TRUE(loaded->events[1].tuple.value(0).is_null());
  EXPECT_FALSE(loaded->events[1].tuple.value(3).bool_value());
  EXPECT_EQ(loaded->events[1].tuple.ts(), 9);
}

TEST_F(TraceIoTest, Errors) {
  EXPECT_TRUE(LoadTraceCsv("/nonexistent/dir/x.csv", {}).status().IsIoError());

  // Unknown stream.
  {
    std::ofstream out(path_);
    out << "mystery,5,a\n";
  }
  EXPECT_TRUE(LoadTraceCsv(path_, {}).status().IsNotFound());

  // Arity mismatch.
  auto schema = Schema::Make({{"a", TypeId::kString},
                              {"b", TypeId::kString}});
  {
    std::ofstream out(path_);
    out << "s,5,only_one\n";
  }
  EXPECT_TRUE(LoadTraceCsv(path_, {{"s", schema}}).status().IsIoError());

  // Bad numeric field.
  auto int_schema = Schema::Make({{"v", TypeId::kInt64}});
  {
    std::ofstream out(path_);
    out << "s,5,not_a_number\n";
  }
  EXPECT_TRUE(
      LoadTraceCsv(path_, {{"s", int_schema}}).status().IsIoError());

  // Bad timestamp.
  {
    std::ofstream out(path_);
    out << "s,abc,1\n";
  }
  EXPECT_TRUE(
      LoadTraceCsv(path_, {{"s", int_schema}}).status().IsIoError());

  // Unterminated quote.
  {
    std::ofstream out(path_);
    out << "s,5,\"oops\n";
  }
  EXPECT_TRUE(
      LoadTraceCsv(path_, {{"s", int_schema}}).status().IsIoError());
}

TEST_F(TraceIoTest, BinaryRoundTripPackingWorkload) {
  PackingWorkloadOptions options;
  options.num_cases = 20;
  auto original = MakePackingWorkload(options);

  ASSERT_TRUE(SaveTraceBinary(original, path_).ok());

  std::map<std::string, SchemaPtr> schemas = {{"R1", ReaderSchema()},
                                              {"R2", ReaderSchema()}};
  auto loaded = LoadTraceBinary(path_, schemas);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->events.size(), original.events.size());
  for (size_t i = 0; i < original.events.size(); ++i) {
    EXPECT_EQ(loaded->events[i].stream, original.events[i].stream);
    EXPECT_TRUE(loaded->events[i].tuple.Equals(original.events[i].tuple))
        << "event " << i;
    // Re-bound to the catalog schema, not a decoded copy.
    EXPECT_EQ(loaded->events[i].tuple.schema().get(),
              schemas.at(loaded->events[i].stream).get());
  }
}

TEST_F(TraceIoTest, BinaryWritesEachSchemaOnce) {
  DuplicateWorkloadOptions options;
  options.num_distinct = 200;
  auto workload = MakeDuplicateWorkload(options);
  ASSERT_TRUE(SaveTraceBinary(workload, path_).ok());
  // Schema back-referencing: the field name "read_time" appears in the
  // inline definition of the readings schema and nowhere else, no
  // matter how many events share it.
  std::ifstream in(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  size_t occurrences = 0;
  for (size_t at = bytes.find("read_time"); at != std::string::npos;
       at = bytes.find("read_time", at + 1)) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
}

TEST_F(TraceIoTest, BinaryErrors) {
  EXPECT_TRUE(
      LoadTraceBinary("/nonexistent/dir/x.bin", {}).status().IsIoError());

  Workload w;
  w.events.push_back({"s",
                      Tuple(Schema::Make({{"v", TypeId::kInt64}}),
                            {Value::Int(1)}, 5)});
  ASSERT_TRUE(SaveTraceBinary(w, path_).ok());

  // Unknown stream.
  EXPECT_TRUE(LoadTraceBinary(path_, {}).status().IsNotFound());

  // Arity mismatch against the catalog schema.
  auto two = Schema::Make({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}});
  EXPECT_TRUE(LoadTraceBinary(path_, {{"s", two}}).status().IsIoError());

  // Truncated file.
  {
    std::ifstream in(path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 4));
  }
  auto one = Schema::Make({{"v", TypeId::kInt64}});
  EXPECT_TRUE(LoadTraceBinary(path_, {{"s", one}}).status().IsIoError());

  // Not a trace file at all.
  {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    out << "definitely not frames";
  }
  EXPECT_TRUE(LoadTraceBinary(path_, {{"s", one}}).status().IsIoError());
}

}  // namespace
}  // namespace rfid
}  // namespace eslev
