#include "exec/windowed_not_exists.h"

namespace eslev {

WindowedNotExistsOperator::WindowedNotExistsOperator(
    WindowSpec window, BoundExprPtr inner_predicate, bool same_stream,
    BoundExprPtr outer_predicate)
    : window_(window),
      inner_predicate_(std::move(inner_predicate)),
      outer_predicate_(std::move(outer_predicate)),
      same_stream_(same_stream),
      has_preceding_(window.direction == WindowDirection::kPreceding ||
                     window.direction ==
                         WindowDirection::kPrecedingAndFollowing),
      has_following_(window.direction == WindowDirection::kFollowing ||
                     window.direction ==
                         WindowDirection::kPrecedingAndFollowing),
      buffer_(window.row_based, window.length),
      scratch_(2) {}

void WindowedNotExistsOperator::AppendStats(OperatorStatList* out) const {
  out->push_back({"window_buffer", static_cast<int64_t>(buffer_.size())});
  out->push_back({"pending", static_cast<int64_t>(pending_.size())});
  out->push_back(
      {"probe_comparisons", static_cast<int64_t>(probe_comparisons_)});
}

Result<bool> WindowedNotExistsOperator::Matches(const Tuple& inner,
                                                const Tuple& outer) {
  ++probe_comparisons_;
  scratch_.SetTuple(0, &inner);
  scratch_.SetTuple(1, &outer);
  return EvalPredicate(*inner_predicate_, scratch_.Row());
}

Status WindowedNotExistsOperator::ProcessTuple(size_t port, const Tuple& tuple) {
  if (same_stream_) {
    ESLEV_RETURN_NOT_OK(ProcessOuter(tuple));
    return ProcessInner(tuple);
  }
  if (port == 0) return ProcessOuter(tuple);
  return ProcessInner(tuple);
}

Status WindowedNotExistsOperator::ProcessOuter(const Tuple& tuple) {
  if (outer_predicate_) {
    scratch_.SetTuple(0, nullptr);
    scratch_.SetTuple(1, &tuple);
    ESLEV_ASSIGN_OR_RETURN(bool pass,
                           EvalPredicate(*outer_predicate_, scratch_.Row()));
    if (!pass) return Status::OK();
  }
  if (has_preceding_) {
    buffer_.EvictAt(tuple.ts());
    for (const Tuple& inner : buffer_.tuples()) {
      ESLEV_ASSIGN_OR_RETURN(bool m, Matches(inner, tuple));
      if (m) return Status::OK();  // EXISTS -> NOT EXISTS fails
    }
  }
  if (has_following_) {
    pending_.push_back({tuple, tuple.ts() + window_.length});
    return Status::OK();
  }
  return Emit(tuple);
}

Status WindowedNotExistsOperator::ProcessInner(const Tuple& tuple) {
  // Cancel pendings whose FOLLOWING window covers this arrival.
  if (has_following_ && !pending_.empty()) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (tuple.ts() >= it->outer.ts() && tuple.ts() <= it->deadline) {
        ESLEV_ASSIGN_OR_RETURN(bool m, Matches(tuple, it->outer));
        if (m) {
          it = pending_.erase(it);
          continue;
        }
      }
      ++it;
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
    buffered.push_back(std::move(t));
  }
  buffer_.Assign(std::move(buffered));
  pending_.clear();
  ESLEV_ASSIGN_OR_RETURN(uint32_t npending, dec->GetU32());
  for (uint32_t i = 0; i < npending; ++i) {
    Pending p;
    ESLEV_ASSIGN_OR_RETURN(p.outer, dec->GetTuple());
    ESLEV_ASSIGN_OR_RETURN(p.deadline, dec->GetI64());
    pending_.push_back(std::move(p));
  }
  return Status::OK();
}

}  // namespace eslev
