#include "stream/stream.h"

namespace eslev {

Status Stream::Push(const Tuple& tuple) {
  if (tuple.size() != schema_->num_fields()) {
    return Status::Invalid("tuple arity " + std::to_string(tuple.size()) +
                           " does not match stream '" + name_ +
                           "' arity " +
                           std::to_string(schema_->num_fields()));
  }
  ++tuples_pushed_;
  Retain(tuple);
  for (const Subscriber& s : subscribers_) {
    ESLEV_RETURN_NOT_OK(s.op->OnTuple(s.port, tuple));
  }
  if (tuples_pushed_ <= deliver_after_seq_) {
    callbacks_suppressed_ += callbacks_.empty() ? 0 : 1;
  } else {
    for (const TupleCallback& cb : callbacks_) {
      cb(tuple);
    }
  }
  return Status::OK();
}

Status Stream::Heartbeat(Timestamp now) {
  // Watermark fan-out (ShardedEngine) can redeliver a tick a shard has
  // already seen; heartbeats older than the last one are no-ops for every
  // operator, so skip the fan-out entirely.
  if (now < last_heartbeat_) return Status::OK();
  last_heartbeat_ = now;
  ++heartbeats_delivered_;
  TrimRetention(now);
  for (const Subscriber& s : subscribers_) {
    ESLEV_RETURN_NOT_OK(s.op->OnHeartbeat(now));
  }
  return Status::OK();
}

void Stream::Retain(const Tuple& tuple) {
  if (retention_ <= 0) return;
  retained_.push_back(tuple);
  TrimRetention(tuple.ts());
}

void Stream::TrimRetention(Timestamp now) {
  if (retention_ <= 0) return;
  while (!retained_.empty() && retained_.front().ts() < now - retention_) {
    retained_.pop_front();
  }
}

Status Stream::SaveState(BinaryEncoder* enc) const {
  enc->PutU64(tuples_pushed_);
  enc->PutU64(heartbeats_delivered_);
  enc->PutI64(last_heartbeat_);
  enc->PutI64(retention_);
  enc->PutU32(static_cast<uint32_t>(retained_.size()));
  for (const Tuple& t : retained_) {
    enc->PutTuple(t);
  }
  return Status::OK();
}

Status Stream::RestoreState(BinaryDecoder* dec) {
  ESLEV_ASSIGN_OR_RETURN(tuples_pushed_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(heartbeats_delivered_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(last_heartbeat_, dec->GetI64());
  ESLEV_ASSIGN_OR_RETURN(retention_, dec->GetI64());
  ESLEV_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
  retained_.clear();
  for (uint32_t i = 0; i < n; ++i) {
    ESLEV_ASSIGN_OR_RETURN(Tuple t, dec->GetTuple());
    retained_.push_back(std::move(t));
  }
  return Status::OK();
}

}  // namespace eslev
