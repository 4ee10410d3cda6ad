#include "types/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace eslev {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), TypeId::kNull);
  EXPECT_TRUE(Value::Null().is_null());

  Value b = Value::Bool(true);
  EXPECT_EQ(b.type(), TypeId::kBool);
  EXPECT_TRUE(b.bool_value());

  Value i = Value::Int(-7);
  EXPECT_EQ(i.type(), TypeId::kInt64);
  EXPECT_EQ(i.int_value(), -7);

  Value d = Value::Double(2.5);
  EXPECT_EQ(d.type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(d.double_value(), 2.5);

  Value s = Value::String("tag42");
  EXPECT_EQ(s.type(), TypeId::kString);
  EXPECT_EQ(s.string_value(), "tag42");

  Value t = Value::Time(Seconds(3));
  EXPECT_EQ(t.type(), TypeId::kTimestamp);
  EXPECT_EQ(t.time_value(), Seconds(3));
}

TEST(ValueTest, NumericCoercions) {
  EXPECT_DOUBLE_EQ(*Value::Int(4).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(*Value::Double(4.5).AsDouble(), 4.5);
  EXPECT_EQ(*Value::Time(100).AsInt64(), 100);
  EXPECT_EQ(*Value::Int(100).AsInt64(), 100);
  EXPECT_EQ(*Value::Double(3.9).AsInt64(), 3);
  EXPECT_TRUE(Value::String("x").AsDouble().status().IsTypeError());
  EXPECT_TRUE(Value::Bool(true).AsInt64().status().IsTypeError());
}

TEST(ValueTest, CompareNumericFamily) {
  EXPECT_EQ(*Value::Int(1).Compare(Value::Int(2)), -1);
  EXPECT_EQ(*Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_EQ(*Value::Int(3).Compare(Value::Int(2)), 1);
  EXPECT_EQ(*Value::Int(2).Compare(Value::Double(2.5)), -1);
  EXPECT_EQ(*Value::Double(2.5).Compare(Value::Int(2)), 1);
  EXPECT_EQ(*Value::Time(5).Compare(Value::Int(5)), 0);
  EXPECT_EQ(*Value::Time(5).Compare(Value::Time(9)), -1);
}

TEST(ValueTest, CompareStringsAndBools) {
  EXPECT_EQ(*Value::String("a").Compare(Value::String("b")), -1);
  EXPECT_EQ(*Value::String("b").Compare(Value::String("b")), 0);
  EXPECT_EQ(*Value::String("c").Compare(Value::String("b")), 1);
  EXPECT_EQ(*Value::Bool(false).Compare(Value::Bool(true)), -1);
}

TEST(ValueTest, CompareNullTotalOrder) {
  EXPECT_EQ(*Value::Null().Compare(Value::Null()), 0);
  EXPECT_EQ(*Value::Null().Compare(Value::Int(0)), -1);
  EXPECT_EQ(*Value::Int(0).Compare(Value::Null()), 1);
}

TEST(ValueTest, CompareIncompatibleIsTypeError) {
  EXPECT_TRUE(
      Value::String("a").Compare(Value::Int(1)).status().IsTypeError());
  EXPECT_TRUE(
      Value::Bool(true).Compare(Value::String("t")).status().IsTypeError());
}

TEST(ValueTest, EqualityIsExact) {
  EXPECT_EQ(Value::Int(5), Value::Int(5));
  EXPECT_NE(Value::Int(5), Value::Double(5.0));  // different types
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Time(5), Value::Int(5));
  EXPECT_EQ(Value::String("x"), Value::String("x"));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(true).ToString(), "TRUE");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
  EXPECT_EQ(Value::Time(Seconds(1)).ToString(), "1.000000s");
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(9).Hash(), Value::Int(9).Hash());
  EXPECT_EQ(Value::String("rfid").Hash(), Value::String("rfid").Hash());
  // Timestamp and Int of same magnitude are != so hashes may differ; just
  // check they're stable.
  EXPECT_EQ(Value::Time(9).Hash(), Value::Time(9).Hash());
}

TEST(ValueTest, NanFollowsPostgresTotalOrder) {
  const Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(*nan.Compare(nan), 0);
  EXPECT_EQ(*nan.Compare(Value::Int(5)), 1);
  EXPECT_EQ(*Value::Int(5).Compare(nan), -1);
  EXPECT_EQ(*nan.Compare(
                Value::Double(std::numeric_limits<double>::infinity())),
            1);
  EXPECT_EQ(*Value::Time(5).Compare(nan), -1);
  EXPECT_EQ(*Value::Double(-0.0).Compare(Value::Double(0.0)), 0);
}

TEST(ValueTest, KeyEqualsIsSqlEquality) {
  const Value nan = Value::Double(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(Value::Int(5).KeyEquals(Value::Double(5.0)));
  EXPECT_TRUE(Value::Time(5).KeyEquals(Value::Int(5)));
  EXPECT_TRUE(nan.KeyEquals(nan));
  EXPECT_FALSE(nan.KeyEquals(Value::Int(5)));
  EXPECT_FALSE(Value::Null().KeyEquals(Value::Null()));
  EXPECT_FALSE(Value::Int(1).KeyEquals(Value::Null()));
  EXPECT_FALSE(Value::String("1").KeyEquals(Value::Int(1)));  // incomparable
  EXPECT_TRUE(Value::String("t").KeyEquals(Value::String("t")));
}

TEST(ValueTest, KeyHashAgreesWithKeyEquals) {
  EXPECT_EQ(Value::Int(5).KeyHash(), Value::Double(5.0).KeyHash());
  EXPECT_EQ(Value::Int(5).KeyHash(), Value::Time(5).KeyHash());
  EXPECT_EQ(Value::Double(-0.0).KeyHash(), Value::Int(0).KeyHash());
  EXPECT_EQ(Value::Double(std::nan("1")).KeyHash(),
            Value::Double(-std::numeric_limits<double>::quiet_NaN())
                .KeyHash());
  EXPECT_EQ(Value::String("rfid").KeyHash(), Value::String("rfid").KeyHash());
  // Beyond 2^53 an INT equals the DOUBLE it rounds to, so both share it.
  const int64_t big = (int64_t{1} << 53) + 1;
  ASSERT_TRUE(Value::Int(big).KeyEquals(
      Value::Double(static_cast<double>(big))));
  EXPECT_EQ(Value::Int(big).KeyHash(),
            Value::Double(static_cast<double>(big)).KeyHash());
}

// KeyEquals reads two values of one non-DOUBLE type directly and sends
// every other pair to Compare; over a matrix that crosses every type with
// the double edge cases and an INT beyond 2^53 it must be exactly
// "neither is NULL and Compare says 0", and KeyHash must agree with it.
TEST(ValueTest, KeyEqualsMatchesCompareAndKeyHashAgrees) {
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t big = (int64_t{1} << 53) + 1;
  const std::vector<Value> values = {
      Value::Null(),
      Value::Bool(false),
      Value::Bool(true),
      Value::Int(0),
      Value::Int(5),
      Value::Int(big),
      Value::Int(big - 1),
      Value::Double(5.0),
      Value::Double(-0.0),
      Value::Double(0.0),
      Value::Double(std::numeric_limits<double>::quiet_NaN()),
      Value::Double(inf),
      Value::Double(-inf),
      Value::Double(static_cast<double>(big)),
      Value::Time(5),
      Value::String(""),
      Value::String("t"),
      Value::String("urn:epc:id:sgtin:0614141.107346.0001"),
  };
  for (const Value& a : values) {
    for (const Value& b : values) {
      const Result<int> cmp = a.Compare(b);
      const bool expected =
          !a.is_null() && !b.is_null() && cmp.ok() && *cmp == 0;
      EXPECT_EQ(a.KeyEquals(b), expected)
          << TypeIdToString(a.type()) << " " << a.ToString() << " vs "
          << TypeIdToString(b.type()) << " " << b.ToString();
      if (expected) {
        EXPECT_EQ(a.KeyHash(), b.KeyHash())
            << a.ToString() << " vs " << b.ToString();
      }
    }
  }
  // A copy of a long string is a distinct buffer with the same bytes.
  const Value epc = values.back();
  EXPECT_TRUE(epc.KeyEquals(values.back()));
}

TEST(TypeNameTest, ParseTypeName) {
  EXPECT_EQ(*ParseTypeName("INT"), TypeId::kInt64);
  EXPECT_EQ(*ParseTypeName("bigint"), TypeId::kInt64);
  EXPECT_EQ(*ParseTypeName("Double"), TypeId::kDouble);
  EXPECT_EQ(*ParseTypeName("VARCHAR"), TypeId::kString);
  EXPECT_EQ(*ParseTypeName("boolean"), TypeId::kBool);
  EXPECT_EQ(*ParseTypeName("TIMESTAMP"), TypeId::kTimestamp);
  EXPECT_TRUE(ParseTypeName("blob").status().IsParseError());
}

}  // namespace
}  // namespace eslev
