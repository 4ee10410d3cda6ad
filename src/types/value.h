// Value: the runtime scalar of ESL-EV tuples and expressions.

#ifndef ESLEV_TYPES_VALUE_H_
#define ESLEV_TYPES_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/result.h"
#include "common/time.h"

namespace eslev {

/// \brief Static types of stream/table columns and expression results.
enum class TypeId : int {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
  kTimestamp,  // microseconds, see common/time.h
};

/// \brief Human-readable type name ("INT", "VARCHAR", ...).
const char* TypeIdToString(TypeId t);

/// \brief Parse an SQL type name (INT/BIGINT/DOUBLE/REAL/VARCHAR/CHAR/
/// STRING/BOOL/BOOLEAN/TIMESTAMP) into a TypeId. Case-insensitive.
Result<TypeId> ParseTypeName(const std::string& name);

/// \brief A dynamically typed scalar. SQL NULL is TypeId::kNull.
///
/// Comparison follows SQL-ish rules restricted to what the engine needs:
/// numeric types compare across kInt64/kDouble/kTimestamp; other
/// cross-type comparisons are a TypeError at evaluation time. Doubles
/// follow PostgreSQL's total order: NaN equals NaN and sorts above every
/// number (DESIGN.md §5).
class Value {
 public:
  Value() : repr_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Repr(v)); }
  static Value Int(int64_t v) { return Value(Repr(v)); }
  static Value Double(double v) { return Value(Repr(v)); }
  static Value String(std::string v) { return Value(Repr(std::move(v))); }
  static Value Time(Timestamp ts) { return Value(Repr(TimestampBox{ts})); }

  TypeId type() const;
  bool is_null() const { return type() == TypeId::kNull; }

  /// \brief Typed accessors; type must match exactly (checked in debug).
  bool bool_value() const { return std::get<bool>(repr_); }
  int64_t int_value() const { return std::get<int64_t>(repr_); }
  double double_value() const { return std::get<double>(repr_); }
  const std::string& string_value() const {
    return std::get<std::string>(repr_);
  }
  Timestamp time_value() const { return std::get<TimestampBox>(repr_).ts; }

  /// \brief Numeric coercion: kInt64/kDouble/kTimestamp as double.
  Result<double> AsDouble() const;
  /// \brief Integral coercion: kInt64/kTimestamp as int64.
  Result<int64_t> AsInt64() const;

  /// \brief Three-way comparison. Error on incomparable types.
  /// NULL compares equal to NULL and less than everything else (total
  /// order for container use; SQL NULL predicate semantics are handled
  /// by the expression evaluator, not here).
  Result<int> Compare(const Value& other) const;

  /// \brief SQL `=` as a two-valued key match: false when either side is
  /// NULL or the two types are incomparable, else `Compare() == 0`. Two
  /// values of one non-DOUBLE type are compared directly.
  bool KeyEquals(const Value& other) const;

  /// \brief Hash that agrees with KeyEquals: INT, DOUBLE and TIMESTAMP
  /// hash by numeric value (NaN and -0.0 canonicalized), so `5`, `5.0`
  /// and the timestamp 5 share a hash.
  size_t KeyHash() const;

  /// \brief Exact structural equality (NULL == NULL is true here).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// \brief Render for output rows and debugging.
  std::string ToString() const;

  /// \brief The GROUP BY key of this value: its type name, ':' and a
  /// spelling that tells distinct values apart. That spelling is
  /// ToString, except for a DOUBLE that ToString's six decimals do not
  /// spell exactly, which gets 17 significant digits (so 0.1234561 and
  /// 0.1234562, or 1e-7 and 0.0, are two groups).
  std::string GroupKey() const;

  /// \brief Hash compatible with operator== (for group-by keys).
  size_t Hash() const;

 private:
  // Distinguishes kTimestamp from kInt64 inside the variant.
  struct TimestampBox {
    Timestamp ts;
    bool operator==(const TimestampBox& o) const { return ts == o.ts; }
  };
  using Repr = std::variant<std::monostate, bool, int64_t, double,
                            std::string, TimestampBox>;

  explicit Value(Repr r) : repr_(std::move(r)) {}

  Repr repr_;
};

}  // namespace eslev

#endif  // ESLEV_TYPES_VALUE_H_
