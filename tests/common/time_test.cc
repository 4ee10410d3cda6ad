#include "common/time.h"

#include <ostream>

#include <gtest/gtest.h>

namespace eslev {
namespace {

TEST(TimeTest, UnitConstants) {
  EXPECT_EQ(kSecond, 1000000);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
  EXPECT_EQ(Seconds(5), 5 * kSecond);
  EXPECT_EQ(Minutes(2), 2 * kMinute);
  EXPECT_EQ(Hours(1), kHour);
  EXPECT_EQ(Milliseconds(1500), kSecond + 500 * kMillisecond);
}

struct UnitCase {
  const char* name;
  Duration expected;
};

// gtest names the parameterized tests after this text, so it must not
// depend on the address of the unit-name literal.
void PrintTo(const UnitCase& c, std::ostream* os) {
  *os << "'" << c.name << "' = " << c.expected << "us";
}

class ParseTimeUnitTest : public ::testing::TestWithParam<UnitCase> {};

TEST_P(ParseTimeUnitTest, ParsesKnownUnits) {
  auto r = ParseTimeUnit(GetParam().name);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Units, ParseTimeUnitTest,
    ::testing::Values(UnitCase{"SECOND", kSecond}, UnitCase{"seconds", kSecond},
                      UnitCase{"Minute", kMinute}, UnitCase{"MINUTES", kMinute},
                      UnitCase{"hour", kHour}, UnitCase{"HOURS", kHour},
                      UnitCase{"day", kDay}, UnitCase{"MILLISECONDS", kMillisecond},
                      UnitCase{"microseconds", kMicrosecond}));

TEST(ParseTimeUnitTest, RejectsUnknown) {
  EXPECT_TRUE(ParseTimeUnit("fortnight").status().IsParseError());
  EXPECT_TRUE(ParseTimeUnit("").status().IsParseError());
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(0), "0s");
  EXPECT_EQ(FormatDuration(Seconds(5)), "5s");
  EXPECT_EQ(FormatDuration(Hours(1) + Minutes(30)), "1h30m");
  EXPECT_EQ(FormatDuration(Milliseconds(250)), "250ms");
  EXPECT_EQ(FormatDuration(-Seconds(2)), "-2s");
  EXPECT_EQ(FormatDuration(3), "3us");
}

TEST(TimeTest, FormatTimestamp) {
  EXPECT_EQ(FormatTimestamp(0), "0.000000s");
  EXPECT_EQ(FormatTimestamp(Seconds(12) + 345), "12.000345s");
}

}  // namespace
}  // namespace eslev
