#include "ingest/reorder_stage.h"

#include <algorithm>

namespace eslev {

void ReorderStage::AppendStats(OperatorStatList* out) const {
  out->push_back({"reorder_depth", static_cast<int64_t>(buffer_.size())});
  out->push_back({"reorder_max_disorder_us", max_disorder_us_});
  out->push_back({"reorder_late_dropped", static_cast<int64_t>(late_dropped_)});
  out->push_back({"reorder_released", static_cast<int64_t>(released_)});
}

Status ReorderStage::Release() {
  const Timestamp threshold = EffectiveFrontier();
  frontier_ = std::max(frontier_, threshold);
  while (!buffer_.empty() && buffer_.top().ts <= threshold) {
    Entry entry = buffer_.Pop().item;
    ++released_;
    ESLEV_RETURN_NOT_OK(Forward(entry.port, std::move(entry.tuple)));
  }
  return Status::OK();
}

Status ReorderStage::TakeTuple(size_t port, Tuple tuple) {
  const Timestamp ts = tuple.ts();
  if (max_seen_ != kMinTimestamp && ts < max_seen_) {
    max_disorder_us_ = std::max(max_disorder_us_, max_seen_ - ts);
  }
  if (ts < EffectiveFrontier()) {
    ++late_dropped_;
    return Status::OK();
  }
  max_seen_ = std::max(max_seen_, ts);
  buffer_.Push(ts, next_seq_++, Entry{port, std::move(tuple)});
  return Release();
}

Status ReorderStage::ProcessHeartbeat(Timestamp now) {
  max_seen_ = std::max(max_seen_, now);
  ESLEV_RETURN_NOT_OK(Release());
  const Timestamp frontier = EffectiveFrontier();
  if (frontier != kMinTimestamp && frontier > hb_out_) {
    hb_out_ = frontier;
    return ForwardHeartbeat(frontier);
  }
  return Status::OK();
}

Status ReorderStage::SaveState(BinaryEncoder* enc) const {
  enc->PutU64(next_seq_);
  enc->PutI64(max_seen_);
  enc->PutI64(frontier_);
  enc->PutI64(hb_out_);
  enc->PutU64(late_dropped_);
  enc->PutU64(released_);
  enc->PutI64(max_disorder_us_);
  enc->PutU32(static_cast<uint32_t>(buffer_.size()));
  for (const auto* e : buffer_.Sorted()) {
    enc->PutU64(e->seq);
    enc->PutU32(static_cast<uint32_t>(e->item.port));
    enc->PutTuple(e->item.tuple);
    enc->PutBool(e->item.tuple.synthesized());
  }
  return Status::OK();
}

Status ReorderStage::RestoreState(BinaryDecoder* dec) {
  ESLEV_ASSIGN_OR_RETURN(next_seq_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(max_seen_, dec->GetI64());
  ESLEV_ASSIGN_OR_RETURN(frontier_, dec->GetI64());
  ESLEV_ASSIGN_OR_RETURN(hb_out_, dec->GetI64());
  ESLEV_ASSIGN_OR_RETURN(late_dropped_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(released_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(max_disorder_us_, dec->GetI64());
  ESLEV_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
  buffer_.Clear();
  for (uint32_t i = 0; i < n; ++i) {
    ESLEV_ASSIGN_OR_RETURN(uint64_t seq, dec->GetU64());
    ESLEV_ASSIGN_OR_RETURN(uint32_t port, dec->GetU32());
    ESLEV_ASSIGN_OR_RETURN(Tuple tuple, dec->GetTuple());
    ESLEV_ASSIGN_OR_RETURN(bool synthesized, dec->GetBool());
    tuple.set_synthesized(synthesized);
    const Timestamp ts = tuple.ts();
    buffer_.Push(ts, seq, Entry{port, std::move(tuple)});
  }
  return Status::OK();
}

}  // namespace eslev
