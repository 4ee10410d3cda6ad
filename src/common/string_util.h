// Small string helpers shared across the lexer, EPC handling, the JSON
// writers, and tests.

#ifndef ESLEV_COMMON_STRING_UTIL_H_
#define ESLEV_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace eslev {

/// \brief ASCII-only uppercase copy (SQL keywords are ASCII).
std::string AsciiToUpper(std::string_view s);

/// \brief ASCII-only lowercase copy (AsciiCaseLess::Lower on each byte).
std::string AsciiToLower(std::string_view s);

/// \brief Case-insensitive ASCII equality.
bool AsciiEqualsIgnoreCase(std::string_view a, std::string_view b);

/// \brief Transparent ordering for maps keyed by lower-case names: a
/// lookup finds any ASCII spelling of a key without lowering it first.
/// It orders the ASCII-lowercase forms byte by byte as unsigned char, as
/// std::string does, so over lower-case keys iteration order is that of
/// a plain map over the same keys.
struct AsciiCaseLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    const size_t n = a.size() < b.size() ? a.size() : b.size();
    for (size_t i = 0; i < n; ++i) {
      const unsigned char x = Lower(a[i]);
      const unsigned char y = Lower(b[i]);
      if (x != y) return x < y;
    }
    return a.size() < b.size();
  }
  static unsigned char Lower(char c) {
    const auto u = static_cast<unsigned char>(c);
    return u >= 'A' && u <= 'Z' ? static_cast<unsigned char>(u - 'A' + 'a')
                                : u;
  }
};

/// \brief Split on a delimiter character; no trimming; empty pieces kept.
std::vector<std::string> Split(std::string_view s, char delim);

/// \brief Join pieces with a separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// \brief Strip leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// \brief True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief Append `s` to `out` as a quoted JSON string: `"` and `\`
/// backslash-escaped, newline, CR and tab as `\n`, `\r`, `\t`, every
/// other byte below 0x20 as `\u00XX`, everything else verbatim.
void AppendJsonString(std::string_view s, std::string* out);

/// \brief SQL LIKE match with '%' (any run) and '_' (any single char).
/// No escape character (matches the subset used in the paper).
bool SqlLikeMatch(std::string_view text, std::string_view pattern);

}  // namespace eslev

#endif  // ESLEV_COMMON_STRING_UTIL_H_
