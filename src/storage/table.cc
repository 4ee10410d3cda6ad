#include "storage/table.h"

#include <algorithm>

namespace eslev {

Status Table::Insert(std::vector<Value> values, Timestamp ts) {
  ESLEV_ASSIGN_OR_RETURN(Tuple t, MakeTuple(schema_, std::move(values), ts));
  return InsertTuple(t);
}

Status Table::InsertTuple(const Tuple& tuple) {
  if (tuple.size() != schema_->num_fields()) {
    return Status::Invalid("row arity does not match table " + name_);
  }
  rows_.push_back(tuple);
  if (indexed_column_) {
    index_.emplace(tuple.value(*indexed_column_).KeyHash(), rows_.size() - 1);
  }
  return Status::OK();
}

size_t Table::Scan(const std::function<bool(const Tuple&)>& pred,
                   const std::function<void(const Tuple&)>& visit) const {
  size_t n = 0;
  for (const Tuple& row : rows_) {
    if (!pred || pred(row)) {
      visit(row);
      ++n;
    }
  }
  return n;
}

bool Table::Any(const std::function<bool(const Tuple&)>& pred) const {
  for (const Tuple& row : rows_) {
    if (pred(row)) return true;
  }
  return false;
}

Status Table::ScanEq(const std::string& column, const Value& v,
                     const std::function<void(const Tuple&)>& visit) const {
  ESLEV_ASSIGN_OR_RETURN(size_t col, schema_->FieldIndex(column));
  if (indexed_column_ && *indexed_column_ == col) {
    auto range = index_.equal_range(v.KeyHash());
    for (auto it = range.first; it != range.second; ++it) {
      const Tuple& row = rows_[it->second];
      if (row.value(col).KeyEquals(v)) visit(row);
    }
    return Status::OK();
  }
  for (const Tuple& row : rows_) {
    if (row.value(col).KeyEquals(v)) visit(row);
  }
  return Status::OK();
}

Result<size_t> Table::Update(const std::function<bool(const Tuple&)>& pred,
                             const std::string& set_column,
                             const Value& set_value) {
  ESLEV_ASSIGN_OR_RETURN(size_t col, schema_->FieldIndex(set_column));
  size_t n = 0;
  for (Tuple& row : rows_) {
    if (pred(row)) {
      // Rows are immutable and may be shared with earlier readers, so
      // the update builds a new row and leaves theirs as it was.
      std::vector<Value> values = row.values();
      values[col] = set_value;
      Tuple updated(row.schema(), std::move(values), row.ts());
      updated.set_synthesized(row.synthesized());
      row = std::move(updated);
      ++n;
    }
  }
  if (n > 0 && indexed_column_ && *indexed_column_ == col) ReindexAll();
  return n;
}

size_t Table::Delete(const std::function<bool(const Tuple&)>& pred) {
  const size_t before = rows_.size();
  rows_.erase(std::remove_if(rows_.begin(), rows_.end(), pred), rows_.end());
  const size_t removed = before - rows_.size();
  if (removed > 0 && indexed_column_) ReindexAll();
  return removed;
}

Status Table::CreateIndex(const std::string& column) {
  ESLEV_ASSIGN_OR_RETURN(size_t col, schema_->FieldIndex(column));
  indexed_column_ = col;
  ReindexAll();
  return Status::OK();
}

bool Table::HasIndex(const std::string& column) const {
  if (!indexed_column_) return false;
  const int col = schema_->FindField(column);
  return col >= 0 && static_cast<size_t>(col) == *indexed_column_;
}

Status Table::SaveState(BinaryEncoder* enc) const {
  enc->PutBool(indexed_column_.has_value());
  if (indexed_column_) {
    enc->PutU32(static_cast<uint32_t>(*indexed_column_));
  }
  enc->PutU32(static_cast<uint32_t>(rows_.size()));
  for (const Tuple& row : rows_) {
    enc->PutTuple(row);
  }
  return Status::OK();
}

Status Table::RestoreState(BinaryDecoder* dec) {
  ESLEV_ASSIGN_OR_RETURN(bool has_index, dec->GetBool());
  std::optional<size_t> indexed_column;
  if (has_index) {
    ESLEV_ASSIGN_OR_RETURN(uint32_t col, dec->GetU32());
    if (col >= schema_->num_fields()) {
      return Status::IoError("table '" + name_ +
                             "': indexed column out of range");
    }
    indexed_column = col;
  }
  ESLEV_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
  ESLEV_RETURN_NOT_OK(dec->CheckCount(n, BinaryDecoder::kMinTupleBytes));
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ESLEV_ASSIGN_OR_RETURN(Tuple row, dec->GetTuple());
    if (row.size() != schema_->num_fields()) {
      return Status::IoError("table '" + name_ +
                             "': checkpointed row arity mismatch");
    }
    rows.push_back(std::move(row));
  }
  rows_ = std::move(rows);
  indexed_column_ = indexed_column;
  ReindexAll();
  return Status::OK();
}

void Table::ReindexAll() {
  index_.clear();
  if (!indexed_column_) return;
  for (size_t i = 0; i < rows_.size(); ++i) {
    index_.emplace(rows_[i].value(*indexed_column_).KeyHash(), i);
  }
}

}  // namespace eslev
