// Environment-variable parsing with range validation. Every runtime knob
// read from the environment goes through these helpers so malformed
// values are rejected with a clear error instead of being silently
// ignored or truncated by ad-hoc atoi/getenv calls.

#ifndef ESLEV_COMMON_ENV_H_
#define ESLEV_COMMON_ENV_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"

namespace eslev {

/// \brief Read `name` as a base-10 integer in [min_value, max_value].
/// Returns nullopt when the variable is unset or empty; an Invalid status
/// naming the variable, the offending text, and the accepted range when
/// the value does not parse cleanly (trailing garbage included) or falls
/// outside the range.
Result<std::optional<int64_t>> GetEnvInt64(const char* name,
                                           int64_t min_value,
                                           int64_t max_value);

/// \brief Read `name` as one of the `allowed` spellings (matched
/// case-insensitively) and return its index. Returns nullopt when the
/// variable is unset or empty; an Invalid status naming the variable,
/// the offending text, and the accepted spellings otherwise.
Result<std::optional<size_t>> GetEnvChoice(
    const char* name, const std::vector<std::string>& allowed);

}  // namespace eslev

#endif  // ESLEV_COMMON_ENV_H_
