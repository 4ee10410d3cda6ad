#include "common/string_util.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

namespace eslev {
namespace {

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(AsciiToUpper("select"), "SELECT");
  EXPECT_EQ(AsciiToLower("SeLeCt"), "select");
  EXPECT_EQ(AsciiToUpper(""), "");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(AsciiEqualsIgnoreCase("SEQ", "seq"));
  EXPECT_TRUE(AsciiEqualsIgnoreCase("", ""));
  EXPECT_FALSE(AsciiEqualsIgnoreCase("SEQ", "SEQUEL"));
  EXPECT_FALSE(AsciiEqualsIgnoreCase("abc", "abd"));
}

// A map over lower-case keys finds every spelling of a key and iterates
// in std::string's order (bytes above 0x7f sort as unsigned).
TEST(StringUtilTest, AsciiCaseLessFindsAnySpellingInStringOrder) {
  const std::vector<std::string> keys = {"_q1", "c1", "readings", "r\xe9",
                                         "read", "zz", "a"};
  std::map<std::string, int, AsciiCaseLess> by_name;
  std::map<std::string, int> plain;
  for (size_t i = 0; i < keys.size(); ++i) {
    by_name.emplace(keys[i], static_cast<int>(i));
    plain.emplace(keys[i], static_cast<int>(i));
  }
  EXPECT_TRUE(std::equal(by_name.begin(), by_name.end(), plain.begin(),
                         plain.end()));
  EXPECT_EQ(by_name.find("READINGS")->second, 2);
  EXPECT_EQ(by_name.find("C1")->second, 1);
  EXPECT_EQ(by_name.find("R\xe9")->second, 3);
  EXPECT_EQ(by_name.count("REA"), 0u);
  EXPECT_EQ(by_name.count(std::string_view("_Q1")), 1u);
}

TEST(StringUtilTest, AppendJsonStringEscapesControlBytesQuoteAndBackslash) {
  std::string in;
  for (int c = 0; c < 0x20; ++c) in.push_back(static_cast<char>(c));
  in += "\"\\a\xc3\xa9";  // quote, backslash, then verbatim bytes
  std::string out = "prefix:";
  AppendJsonString(in, &out);
  EXPECT_EQ(out,
            R"(prefix:"\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007)"
            R"(\u0008\t\n\u000b\u000c\r\u000e\u000f\u0010\u0011\u0012)"
            R"(\u0013\u0014\u0015\u0016\u0017\u0018\u0019\u001a\u001b)"
            R"(\u001c\u001d\u001e\u001f\"\\a)"
            "\xc3\xa9\"");
}

TEST(StringUtilTest, Split) {
  auto parts = Split("20.57.9000", '.');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "20");
  EXPECT_EQ(parts[1], "57");
  EXPECT_EQ(parts[2], "9000");

  auto empties = Split("a..b", '.');
  ASSERT_EQ(empties.size(), 3u);
  EXPECT_EQ(empties[1], "");

  auto single = Split("abc", '.');
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], "abc");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
}

struct LikeCase {
  const char* text;
  const char* pattern;
  bool match;
};

// Prints each case as the SQL predicate it checks. gtest names the
// parameterized tests after this text, so it must not depend on the
// addresses of the string literals.
void PrintTo(const LikeCase& c, std::ostream* os) {
  *os << "'" << c.text << "' " << (c.match ? "LIKE" : "NOT LIKE") << " '"
      << c.pattern << "'";
}

class LikeMatchTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatchTest, Matches) {
  EXPECT_EQ(SqlLikeMatch(GetParam().text, GetParam().pattern),
            GetParam().match)
      << GetParam().text << " LIKE " << GetParam().pattern;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LikeMatchTest,
    ::testing::Values(
        // The paper's Example 3 pattern: '20.%.%'
        LikeCase{"20.57.9000", "20.%.%", true},
        LikeCase{"21.57.9000", "20.%.%", false},
        LikeCase{"20.57", "20.%.%", false},  // needs a second '.'
        LikeCase{"20.57.", "20.%.%", true},  // '%' may match empty
        LikeCase{"20", "20.%.%", false},
        LikeCase{"abc", "abc", true},
        LikeCase{"abc", "a_c", true},
        LikeCase{"abc", "a_d", false},
        LikeCase{"abc", "%", true},
        LikeCase{"", "%", true},
        LikeCase{"", "", true},
        LikeCase{"", "_", false},
        LikeCase{"abcdef", "a%f", true},
        LikeCase{"abcdef", "a%g", false},
        LikeCase{"aaa", "%a", true},
        LikeCase{"mississippi", "%ss%pp%", true},
        LikeCase{"mississippi", "%ss%xx%", false},
        LikeCase{"abc", "abc%", true},
        LikeCase{"abc", "%%%", true}));

}  // namespace
}  // namespace eslev
