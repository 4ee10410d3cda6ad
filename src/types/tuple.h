// Tuple: one timestamped row of a data stream (append-only relation model).

#ifndef ESLEV_TYPES_TUPLE_H_
#define ESLEV_TYPES_TUPLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "types/schema.h"
#include "types/value.h"

namespace eslev {

/// \brief A timestamped row. RFID primitive events are tuples
/// (reader_id, tag_id, read_time) whose `ts` is the observation time.
///
/// The timestamp is carried out-of-band (every stream tuple has one, per
/// the standard DSMS model); workload generators typically also mirror it
/// into a column such as `read_time` so queries can reference it.
///
/// A Tuple is a handle on one shared, immutable row (DESIGN.md §5 "One
/// row per event"): the schema and values are built once, and copying a
/// tuple (into a window, a SEQ history, an outbox) adds one reference to
/// that row. The timestamp and the provenance bit live in the handle, so
/// setting them on one copy leaves every other copy as it was.
class Tuple {
 public:
  Tuple() = default;
  Tuple(SchemaPtr schema, std::vector<Value> values, Timestamp ts)
      : row_(std::make_shared<const Row>(
            Row{std::move(schema), std::move(values)})),
        ts_(ts) {}

  const SchemaPtr& schema() const { return row_ ? row_->schema : kNoSchema; }
  const std::vector<Value>& values() const {
    return row_ ? row_->values : kNoValues;
  }
  size_t size() const { return row_ ? row_->values.size() : 0; }
  Timestamp ts() const { return ts_; }
  void set_ts(Timestamp ts) { ts_ = ts; }

  const Value& value(size_t i) const { return row_->values[i]; }

  /// \brief Provenance bit (DESIGN.md §15): true for reads synthesized by
  /// the ingest cleaning stage's missed-read interpolation, false for
  /// observed reads. In-memory only — not part of the frozen on-disk
  /// tuple encoding (checkpoints that must persist it encode it
  /// alongside the tuple) and excluded from Equals/ToString so query
  /// output bytes are unchanged.
  bool synthesized() const { return synthesized_; }
  void set_synthesized(bool v) { synthesized_ = v; }

  /// \brief Value by column name, or NotFound.
  Result<Value> ValueByName(const std::string& name) const;

  /// \brief Structural equality of values and timestamp (schema by layout).
  bool Equals(const Tuple& other) const;

  /// \brief "(v1, v2, ...)@ts" for test failure messages.
  std::string ToString() const;

 private:
  struct Row {
    SchemaPtr schema;
    std::vector<Value> values;
  };
  static inline const SchemaPtr kNoSchema;
  static inline const std::vector<Value> kNoValues;

  std::shared_ptr<const Row> row_;
  Timestamp ts_ = 0;
  bool synthesized_ = false;
};

/// \brief Build a tuple validating arity and (loosely) types against the
/// schema: kNull is allowed anywhere; ints widen to double columns.
Result<Tuple> MakeTuple(const SchemaPtr& schema, std::vector<Value> values,
                        Timestamp ts);

}  // namespace eslev

#endif  // ESLEV_TYPES_TUPLE_H_
