#include "common/env.h"

#include <cerrno>
#include <cstdlib>
#include <string>

namespace eslev {

Result<std::optional<int64_t>> GetEnvInt64(const char* name, int64_t min_value,
                                           int64_t max_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::optional<int64_t>{};
  const std::string text(raw);
  const auto range = [&] {
    return "accepted range is [" + std::to_string(min_value) + ", " +
           std::to_string(max_value) + "]";
  };
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0') {
    return Status::Invalid(std::string(name) + "='" + text +
                           "' is not an integer; " + range());
  }
  if (errno == ERANGE || parsed < min_value || parsed > max_value) {
    return Status::Invalid(std::string(name) + "='" + text +
                           "' is out of range; " + range());
  }
  return std::optional<int64_t>{static_cast<int64_t>(parsed)};
}

Result<std::optional<size_t>> GetEnvChoice(
    const char* name, const std::vector<std::string>& allowed) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::optional<size_t>{};
  std::string text(raw);
  std::string lowered = text;
  for (char& c : lowered) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  for (size_t i = 0; i < allowed.size(); ++i) {
    if (lowered == allowed[i]) return std::optional<size_t>{i};
  }
  std::string accepted;
  for (size_t i = 0; i < allowed.size(); ++i) {
    if (i > 0) accepted += ", ";
    accepted += "'" + allowed[i] + "'";
  }
  return Status::Invalid(std::string(name) + "='" + text +
                         "' is not recognized; accepted values are " +
                         accepted);
}

}  // namespace eslev
