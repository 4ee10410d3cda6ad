#include "types/tuple.h"

namespace eslev {

Result<Value> Tuple::ValueByName(const std::string& name) const {
  if (!schema()) return Status::Invalid("tuple has no schema");
  ESLEV_ASSIGN_OR_RETURN(size_t i, schema()->FieldIndex(name));
  return value(i);
}

bool Tuple::Equals(const Tuple& other) const {
  return ts_ == other.ts_ && values() == other.values();
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) out += ", ";
    out += value(i).ToString();
  }
  out += ")@";
  out += FormatTimestamp(ts_);
  return out;
}

Result<Tuple> MakeTuple(const SchemaPtr& schema, std::vector<Value> values,
                        Timestamp ts) {
  if (!schema) return Status::Invalid("null schema");
  if (values.size() != schema->num_fields()) {
    return Status::Invalid("tuple arity " + std::to_string(values.size()) +
                           " does not match schema arity " +
                           std::to_string(schema->num_fields()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    const TypeId want = schema->field(i).type;
    const TypeId got = values[i].type();
    if (got == TypeId::kNull || got == want) continue;
    if (want == TypeId::kDouble && got == TypeId::kInt64) {
      values[i] = Value::Double(static_cast<double>(values[i].int_value()));
      continue;
    }
    if (want == TypeId::kTimestamp && got == TypeId::kInt64) {
      values[i] = Value::Time(values[i].int_value());
      continue;
    }
    if (want == TypeId::kInt64 && got == TypeId::kTimestamp) {
      values[i] = Value::Int(values[i].time_value());
      continue;
    }
    return Status::TypeError(
        std::string("column ") + schema->field(i).name + " expects " +
        TypeIdToString(want) + " but got " + TypeIdToString(got));
  }
  return Tuple(schema, std::move(values), ts);
}

}  // namespace eslev
