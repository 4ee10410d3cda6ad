#include "exec/windowed_not_exists.h"

namespace eslev {

namespace {

std::vector<size_t> KeyColumns(
    const std::vector<WindowedNotExistsOperator::Key>& keys) {
  std::vector<size_t> columns;
  columns.reserve(keys.size());
  for (const auto& k : keys) columns.push_back(k.inner_column);
  return columns;
}

}  // namespace

WindowedNotExistsOperator::WindowedNotExistsOperator(
    WindowSpec window, BoundExprPtr residual, bool same_stream,
    BoundExprPtr outer_predicate, std::vector<Key> keys)
    : window_(window),
      residual_(std::move(residual)),
      outer_predicate_(std::move(outer_predicate)),
      keys_(std::move(keys)),
      same_stream_(same_stream),
      has_preceding_(window.direction == WindowDirection::kPreceding ||
                     window.direction ==
                         WindowDirection::kPrecedingAndFollowing),
      has_following_(window.direction == WindowDirection::kFollowing ||
                     window.direction ==
                         WindowDirection::kPrecedingAndFollowing),
      buffer_(window.row_based, window.length, KeyColumns(keys_)),
      probe_key_(keys_.size()),
      computed_key_(keys_.size()),
      scratch_(2) {}

void WindowedNotExistsOperator::AppendStats(OperatorStatList* out) const {
  out->push_back({"window_buffer", static_cast<int64_t>(buffer_.size())});
  out->push_back({"pending", static_cast<int64_t>(pending_.size())});
  out->push_back(
      {"probe_comparisons", static_cast<int64_t>(probe_comparisons_)});
}

Status WindowedNotExistsOperator::EvalKey(const Tuple& outer) {
  scratch_.SetTuple(0, nullptr);
  scratch_.SetTuple(1, &outer);
  const EvalRow row = scratch_.Row();
  for (size_t i = 0; i < keys_.size(); ++i) {
    probe_key_[i] = keys_[i].outer_expr->Peek(row);
    if (probe_key_[i] == nullptr) {
      ESLEV_ASSIGN_OR_RETURN(computed_key_[i], keys_[i].outer_expr->Eval(row));
      probe_key_[i] = &computed_key_[i];
    }
  }
  return Status::OK();
}

std::vector<Value> WindowedNotExistsOperator::OwnedKey() const {
  std::vector<Value> key;
  key.reserve(probe_key_.size());
  for (const Value* v : probe_key_) key.push_back(*v);
  return key;
}

Result<bool> WindowedNotExistsOperator::Matches(const Tuple& inner,
                                                const Tuple& outer,
                                                const KeyRefs& outer_key) {
  ++probe_comparisons_;
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (!inner.value(keys_[i].inner_column).KeyEquals(*outer_key[i])) {
      return false;
    }
  }
  if (!residual_) return true;
  scratch_.SetTuple(0, &inner);
  scratch_.SetTuple(1, &outer);
  return EvalPredicate(*residual_, scratch_.Row());
}

Status WindowedNotExistsOperator::ProcessTuple(size_t port, const Tuple& tuple) {
  if (same_stream_) {
    bool held = false;
    ESLEV_RETURN_NOT_OK(ProcessOuter(tuple, &held));
    return ProcessInner(tuple, held);
  }
  if (port == 0) {
    bool held = false;
    return ProcessOuter(tuple, &held);
  }
  return ProcessInner(tuple, false);
}

Status WindowedNotExistsOperator::ProcessOuter(const Tuple& tuple,
                                               bool* held) {
  if (outer_predicate_) {
    scratch_.SetTuple(0, nullptr);
    scratch_.SetTuple(1, &tuple);
    ESLEV_ASSIGN_OR_RETURN(bool pass,
                           EvalPredicate(*outer_predicate_, scratch_.Row()));
    if (!pass) return Status::OK();
  }
  if (has_preceding_) buffer_.EvictAt(tuple.ts());
  // The key values are evaluated only when something can be compared
  // with them: a buffered tuple, or a later arrival on the FOLLOWING side.
  bool have_key = false;
  if (buffer_.size() > 0) {
    ESLEV_RETURN_NOT_OK(EvalKey(tuple));
    have_key = true;
    bool found = false;
    Status status;
    buffer_.ForEachInBucket(
        KeyedWindowBuffer::ProbeHash(probe_key_), [&](const Tuple& inner) {
          Result<bool> m = Matches(inner, tuple, probe_key_);
          if (!m.ok()) {
            status = m.status();
            return false;
          }
          found = *m;
          return !found;
        });
    ESLEV_RETURN_NOT_OK(status);
    if (found) return Status::OK();  // EXISTS -> NOT EXISTS fails
  }
  if (has_following_) {
    if (!have_key) ESLEV_RETURN_NOT_OK(EvalKey(tuple));
    pending_.push_back({tuple, tuple.ts() + window_.length, OwnedKey()});
    *held = true;
    return Status::OK();
  }
  return Emit(tuple);
}

Status WindowedNotExistsOperator::ProcessInner(const Tuple& tuple,
                                               bool skip_last_pending) {
  // Cancel pendings whose FOLLOWING window covers this arrival.
  if (has_following_ && !pending_.empty()) {
    size_t n = pending_.size() - (skip_last_pending ? 1 : 0);
    for (size_t i = 0; i < n;) {
      const Pending& p = pending_[i];
      if (tuple.ts() >= p.outer.ts() && tuple.ts() <= p.deadline) {
        // A pending entry owns its key values; Matches reads them in place.
        for (size_t k = 0; k < p.key.size(); ++k) probe_key_[k] = &p.key[k];
        ESLEV_ASSIGN_OR_RETURN(bool m, Matches(tuple, p.outer, probe_key_));
        if (m) {
          pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
          --n;
          continue;
        }
      }
      ++i;
    }
  }
  if (has_preceding_) buffer_.Add(tuple);
  // Time has advanced: emit pendings that survived their window.
  ESLEV_RETURN_NOT_OK(FlushPending(tuple.ts()));
  return Status::OK();
}

Status WindowedNotExistsOperator::FlushPending(Timestamp now) {
  while (!pending_.empty() && pending_.front().deadline < now) {
    Tuple out = pending_.front().outer;
    pending_.pop_front();
    ESLEV_RETURN_NOT_OK(Emit(out));
  }
  return Status::OK();
}

Status WindowedNotExistsOperator::ProcessHeartbeat(Timestamp now) {
  buffer_.EvictAt(now);
  ESLEV_RETURN_NOT_OK(FlushPending(now));
  return EmitHeartbeat(now);
}

Status WindowedNotExistsOperator::SaveState(BinaryEncoder* enc) const {
  enc->PutU64(probe_comparisons_);
  enc->PutU32(static_cast<uint32_t>(buffer_.size()));
  for (const Tuple& t : buffer_.tuples()) enc->PutTuple(t);
  enc->PutU32(static_cast<uint32_t>(pending_.size()));
  for (const Pending& p : pending_) {
    enc->PutTuple(p.outer);
    enc->PutI64(p.deadline);
  }
  return Status::OK();
}

Status WindowedNotExistsOperator::RestoreState(BinaryDecoder* dec) {
  ESLEV_ASSIGN_OR_RETURN(probe_comparisons_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(uint32_t nbuffered, dec->GetU32());
  std::deque<Tuple> buffered;
  for (uint32_t i = 0; i < nbuffered; ++i) {
    ESLEV_ASSIGN_OR_RETURN(Tuple t, dec->GetTuple());
    for (const Key& k : keys_) {
      if (k.inner_column >= t.size()) {
        return Status::IoError(
            "checkpointed window tuple lacks a key column");
      }
    }
    buffered.push_back(std::move(t));
  }
  buffer_.Assign(std::move(buffered));
  pending_.clear();
  ESLEV_ASSIGN_OR_RETURN(uint32_t npending, dec->GetU32());
  for (uint32_t i = 0; i < npending; ++i) {
    Pending p;
    ESLEV_ASSIGN_OR_RETURN(p.outer, dec->GetTuple());
    ESLEV_ASSIGN_OR_RETURN(p.deadline, dec->GetI64());
    ESLEV_RETURN_NOT_OK(EvalKey(p.outer));
    p.key = OwnedKey();
    pending_.push_back(std::move(p));
  }
  return Status::OK();
}

}  // namespace eslev
