#include "types/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "common/string_util.h"

namespace eslev {

const char* TypeIdToString(TypeId t) {
  switch (t) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return "BOOL";
    case TypeId::kInt64:
      return "INT";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "VARCHAR";
    case TypeId::kTimestamp:
      return "TIMESTAMP";
  }
  return "UNKNOWN";
}

Result<TypeId> ParseTypeName(const std::string& name) {
  const std::string u = AsciiToUpper(name);
  if (u == "INT" || u == "INTEGER" || u == "BIGINT") return TypeId::kInt64;
  if (u == "DOUBLE" || u == "REAL" || u == "FLOAT") return TypeId::kDouble;
  if (u == "VARCHAR" || u == "CHAR" || u == "STRING" || u == "TEXT") {
    return TypeId::kString;
  }
  if (u == "BOOL" || u == "BOOLEAN") return TypeId::kBool;
  if (u == "TIMESTAMP" || u == "TIME") return TypeId::kTimestamp;
  return Status::ParseError("unknown type name: " + name);
}

TypeId Value::type() const {
  switch (repr_.index()) {
    case 0:
      return TypeId::kNull;
    case 1:
      return TypeId::kBool;
    case 2:
      return TypeId::kInt64;
    case 3:
      return TypeId::kDouble;
    case 4:
      return TypeId::kString;
    case 5:
      return TypeId::kTimestamp;
  }
  return TypeId::kNull;
}

Result<double> Value::AsDouble() const {
  switch (type()) {
    case TypeId::kInt64:
      return static_cast<double>(int_value());
    case TypeId::kDouble:
      return double_value();
    case TypeId::kTimestamp:
      return static_cast<double>(time_value());
    default:
      return Status::TypeError("value is not numeric: " + ToString());
  }
}

Result<int64_t> Value::AsInt64() const {
  switch (type()) {
    case TypeId::kInt64:
      return int_value();
    case TypeId::kTimestamp:
      return static_cast<int64_t>(time_value());
    case TypeId::kDouble:
      return static_cast<int64_t>(double_value());
    default:
      return Status::TypeError("value is not integral: " + ToString());
  }
}

namespace {
// PostgreSQL's float order: NaN equals NaN and sorts above every number,
// so `=` is an equivalence and ORDER BY gets a strict weak ordering.
int Spaceship(double a, double b) {
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan || b_nan) return static_cast<int>(a_nan) - static_cast<int>(b_nan);
  return a < b ? -1 : (a > b ? 1 : 0);
}
int Spaceship(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }
}  // namespace

Result<int> Value::Compare(const Value& other) const {
  const TypeId lt = type();
  const TypeId rt = other.type();
  if (lt == TypeId::kNull || rt == TypeId::kNull) {
    if (lt == rt) return 0;
    return lt == TypeId::kNull ? -1 : 1;
  }
  // Numeric family: int/double/timestamp are mutually comparable.
  const auto numeric = [](TypeId t) {
    return t == TypeId::kInt64 || t == TypeId::kDouble ||
           t == TypeId::kTimestamp;
  };
  if (numeric(lt) && numeric(rt)) {
    if (lt == TypeId::kDouble || rt == TypeId::kDouble) {
      ESLEV_ASSIGN_OR_RETURN(double a, AsDouble());
      ESLEV_ASSIGN_OR_RETURN(double b, other.AsDouble());
      return Spaceship(a, b);
    }
    ESLEV_ASSIGN_OR_RETURN(int64_t a, AsInt64());
    ESLEV_ASSIGN_OR_RETURN(int64_t b, other.AsInt64());
    return Spaceship(a, b);
  }
  if (lt != rt) {
    return Status::TypeError(std::string("cannot compare ") +
                             TypeIdToString(lt) + " with " +
                             TypeIdToString(rt));
  }
  switch (lt) {
    case TypeId::kBool:
      return Spaceship(static_cast<int64_t>(bool_value()),
                       static_cast<int64_t>(other.bool_value()));
    case TypeId::kString:
      return string_value().compare(other.string_value()) < 0
                 ? -1
                 : (string_value() == other.string_value() ? 0 : 1);
    default:
      return Status::TypeError("unsupported comparison");
  }
}

bool Value::KeyEquals(const Value& other) const {
  if (repr_.index() == other.repr_.index()) {
    // One type: Compare's 0 is plain equality, except for DOUBLE (NaN
    // equals NaN, -0.0 equals 0.0), which stays on Compare.
    switch (type()) {
      case TypeId::kNull:
        return false;
      case TypeId::kBool:
        return bool_value() == other.bool_value();
      case TypeId::kInt64:
        return int_value() == other.int_value();
      case TypeId::kString:
        return string_value() == other.string_value();
      case TypeId::kTimestamp:
        return time_value() == other.time_value();
      case TypeId::kDouble:
        break;
    }
  }
  if (is_null() || other.is_null()) return false;
  const Result<int> cmp = Compare(other);
  return cmp.ok() && *cmp == 0;
}

size_t Value::KeyHash() const {
  // Compare() falls back to doubles across the numeric family, so values
  // it calls equal always share their double image.
  double d = 0;
  switch (type()) {
    case TypeId::kInt64:
      d = static_cast<double>(int_value());
      break;
    case TypeId::kDouble:
      d = double_value();
      break;
    case TypeId::kTimestamp:
      d = static_cast<double>(time_value());
      break;
    default:
      return Hash();
  }
  if (std::isnan(d)) return 0x7ff8000000000000ULL;
  if (d == 0) d = 0;  // -0.0 == 0.0
  return std::hash<double>{}(d);
}

bool Value::operator==(const Value& other) const {
  return repr_ == other.repr_;
}

std::string Value::ToString() const {
  switch (type()) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case TypeId::kInt64:
      return std::to_string(int_value());
    case TypeId::kDouble: {
      std::string s = std::to_string(double_value());
      return s;
    }
    case TypeId::kString:
      return string_value();
    case TypeId::kTimestamp:
      return FormatTimestamp(time_value());
  }
  return "?";
}

size_t Value::Hash() const {
  switch (type()) {
    case TypeId::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case TypeId::kBool:
      return std::hash<bool>{}(bool_value());
    case TypeId::kInt64:
      return std::hash<int64_t>{}(int_value());
    case TypeId::kDouble:
      return std::hash<double>{}(double_value());
    case TypeId::kString:
      return std::hash<std::string>{}(string_value());
    case TypeId::kTimestamp:
      return std::hash<int64_t>{}(time_value()) ^ 0x517cc1b727220a95ULL;
  }
  return 0;
}

std::string Value::GroupKey() const {
  std::string text = ToString();
  if (type() == TypeId::kDouble) {
    const double d = double_value();
    if (!std::isnan(d) && std::strtod(text.c_str(), nullptr) != d) {
      char exact[32];
      std::snprintf(exact, sizeof(exact), "%.17g", d);
      text = exact;
    }
  }
  return std::string(TypeIdToString(type())) + ":" + text;
}

}  // namespace eslev
