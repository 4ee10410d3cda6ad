// Table: an in-memory persistent relation for stream-DB spanning queries
// (paper §2.1: context retrieval, database updates / location tracking).

#ifndef ESLEV_STORAGE_TABLE_H_
#define ESLEV_STORAGE_TABLE_H_

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "recovery/codec.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace eslev {

class Table {
 public:
  Table(std::string name, SchemaPtr schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const SchemaPtr& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  const std::vector<Tuple>& rows() const { return rows_; }

  /// \brief Append a row (validated and coerced against the schema).
  Status Insert(std::vector<Value> values, Timestamp ts = 0);

  /// \brief Append an already validated tuple.
  Status InsertTuple(const Tuple& tuple);

  /// \brief Visit rows matching `pred` (all rows if pred is empty);
  /// return the number visited. Uses the hash index when an equality
  /// lookup was requested via ScanEq.
  size_t Scan(const std::function<bool(const Tuple&)>& pred,
              const std::function<void(const Tuple&)>& visit) const;

  /// \brief True iff any row satisfies `pred`.
  bool Any(const std::function<bool(const Tuple&)>& pred) const;

  /// \brief Index-accelerated equality probe on `column`; falls back to a
  /// scan when no index exists. Visits every row whose column is SQL-equal
  /// to `v` (Value::KeyEquals: `5` matches `5.0`, NULL matches nothing).
  Status ScanEq(const std::string& column, const Value& v,
                const std::function<void(const Tuple&)>& visit) const;

  /// \brief Update matching rows: for each row where `pred` holds, set
  /// column `set_column` to `set_value`. Returns rows updated.
  Result<size_t> Update(const std::function<bool(const Tuple&)>& pred,
                        const std::string& set_column, const Value& set_value);

  /// \brief Delete matching rows; returns rows deleted.
  size_t Delete(const std::function<bool(const Tuple&)>& pred);

  /// \brief Build (or rebuild) a hash index on `column` to accelerate
  /// ScanEq; maintained incrementally on insert/update/delete.
  Status CreateIndex(const std::string& column);

  bool HasIndex(const std::string& column) const;

  /// \brief Serialize rows + index configuration (checkpoint). The hash
  /// index itself is rebuilt on restore, not persisted.
  Status SaveState(BinaryEncoder* enc) const;
  /// \brief Restore state saved by SaveState (schema must already match).
  Status RestoreState(BinaryDecoder* dec);

 private:
  void ReindexAll();

  std::string name_;
  SchemaPtr schema_;
  std::vector<Tuple> rows_;
  // column index -> (value hash map -> row ids)
  std::optional<size_t> indexed_column_;
  std::unordered_multimap<size_t, size_t> index_;  // KeyHash -> row id
};

}  // namespace eslev

#endif  // ESLEV_STORAGE_TABLE_H_
