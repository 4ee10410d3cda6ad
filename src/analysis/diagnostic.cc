#include "analysis/diagnostic.h"

#include "common/string_util.h"

namespace eslev {

const char* SeverityToString(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

std::string Diagnostic::ToString() const {
  std::string out = SeverityToString(severity);
  out += "[" + rule + "] " + message;
  if (span.valid()) out += " (" + span.Describe() + ")";
  if (!hint.empty()) out += "; hint: " + hint;
  return out;
}

std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics) {
  std::string out = "{\"diagnostics\":[";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) out += ",";
    out += "{\"severity\":";
    AppendJsonString(SeverityToString(d.severity), &out);
    out += ",\"rule\":";
    AppendJsonString(d.rule, &out);
    out += ",\"message\":";
    AppendJsonString(d.message, &out);
    out += ",\"line\":" + std::to_string(d.span.line) +
           ",\"column\":" + std::to_string(d.span.column) +
           ",\"offset\":" + std::to_string(d.span.offset) +
           ",\"length\":" + std::to_string(d.span.length);
    if (!d.hint.empty()) {
      out += ",\"hint\":";
      AppendJsonString(d.hint, &out);
    }
    out += "}";
  }
  out += "],\"errors\":" +
         std::to_string(CountSeverity(diagnostics, Severity::kError)) +
         ",\"warnings\":" +
         std::to_string(CountSeverity(diagnostics, Severity::kWarning)) + "}";
  return out;
}

size_t CountSeverity(const std::vector<Diagnostic>& diagnostics, Severity s) {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == s) ++n;
  }
  return n;
}

}  // namespace eslev
