#include "ingest/cleaning_stage.h"

#include <algorithm>

namespace eslev {

namespace {

/// Copy `base` shifted forward by `delta`: the out-of-band timestamp and
/// every timestamp-typed column move together, so a synthesized read's
/// mirrored event-time columns stay consistent with its tuple timestamp.
Tuple ShiftTuple(const Tuple& base, Duration delta) {
  std::vector<Value> values = base.values();
  const SchemaPtr& schema = base.schema();
  if (schema != nullptr) {
    for (size_t i = 0; i < values.size() && i < schema->num_fields(); ++i) {
      if (schema->field(i).type == TypeId::kTimestamp &&
          values[i].type() == TypeId::kTimestamp) {
        values[i] = Value::Time(values[i].time_value() + delta);
      }
    }
  }
  return Tuple(base.schema(), std::move(values), base.ts() + delta);
}

}  // namespace

std::string CleaningStage::SmoothingKey(const Tuple& tuple) {
  std::string key;
  const SchemaPtr& schema = tuple.schema();
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (schema != nullptr && i < schema->num_fields() &&
        schema->field(i).type == TypeId::kTimestamp) {
      continue;  // event-time mirror columns differ between duplicates
    }
    key += tuple.value(i).ToString();
    key += '\x1f';
  }
  return key;
}

void CleaningStage::AppendStats(OperatorStatList* out) const {
  out->push_back({"clean_open_groups", static_cast<int64_t>(open_.size())});
  out->push_back({"clean_pending", static_cast<int64_t>(pending_.size())});
  out->push_back(
      {"clean_dups_suppressed", static_cast<int64_t>(dups_suppressed_)});
  out->push_back(
      {"clean_spurious_filtered", static_cast<int64_t>(spurious_filtered_)});
  out->push_back({"clean_interpolated", static_cast<int64_t>(interpolated_)});
  out->push_back({"clean_emitted", static_cast<int64_t>(emitted_)});
}

void CleaningStage::QueueEmission(size_t port, Tuple tuple) {
  ++emitted_;
  pending_.emplace(std::make_pair(tuple.ts(), pending_seq_++),
                   std::make_pair(port, std::move(tuple)));
}

Status CleaningStage::CloseGroup(Group group) {
  if (static_cast<int64_t>(group.count) < min_count_) {
    spurious_filtered_ += group.count;
    return Status::OK();
  }
  dups_suppressed_ += group.count - 1;
  const PortKey pk{group.port, group.key};
  KeyState& ks = key_state_[pk];
  if (ks.has_last) {
    const Duration gap = group.anchor.ts() - ks.last.ts();
    if (gap > 0) {
      if (horizon_ > 0) {
        // Configured period, or the per-key EMA estimate; no fills until
        // an estimate exists, and never more than kMaxFillsPerGap — a gap
        // needing more means the period estimate is degenerate.
        constexpr int64_t kMaxFillsPerGap = 1000;
        const Duration period = period_ > 0 ? period_ : ks.ema_gap_us;
        if (period > 0 && gap > period && gap <= horizon_ &&
            gap / period <= kMaxFillsPerGap) {
          for (Timestamp ts = ks.last.ts() + period; ts < group.anchor.ts();
               ts += period) {
            Tuple synth = ShiftTuple(ks.last, ts - ks.last.ts());
            synth.set_synthesized(true);
            ++interpolated_;
            QueueEmission(group.port, std::move(synth));
          }
        }
      }
      ks.ema_gap_us = ks.ema_gap_us == 0 ? gap : (gap + 3 * ks.ema_gap_us) / 4;
    }
  }
  ks.has_last = true;
  ks.last = group.anchor;
  QueueEmission(group.port, std::move(group.anchor));
  return Status::OK();
}

Status CleaningStage::CloseGroups() {
  while (!open_.empty() &&
         open_.begin()->first.first + window_ < frontier_) {
    Group group = std::move(open_.begin()->second);
    open_.erase(open_.begin());
    open_index_.erase(PortKey{group.port, group.key});
    ESLEV_RETURN_NOT_OK(CloseGroup(std::move(group)));
  }
  return Status::OK();
}

Status CleaningStage::Absorb(size_t port, const Tuple& tuple) {
  frontier_ = std::max(frontier_, tuple.ts());
  // Close passed groups first: if this key's group window ended before
  // this read, the read anchors a fresh group.
  ESLEV_RETURN_NOT_OK(CloseGroups());
  const PortKey pk{port, SmoothingKey(tuple)};
  auto it = open_index_.find(pk);
  if (it != open_index_.end()) {
    ++open_.at(it->second).count;
    return Status::OK();
  }
  const auto anchor_key = std::make_pair(tuple.ts(), open_seq_++);
  open_.emplace(anchor_key, Group{port, pk.second, tuple, 1});
  open_index_.emplace(pk, anchor_key);
  return Status::OK();
}

Status CleaningStage::ReleasePending() {
  const Timestamp threshold = ReleaseThreshold();
  if (threshold == kMinTimestamp) return Status::OK();
  while (!pending_.empty() && pending_.begin()->first.first <= threshold) {
    auto [port, tuple] = std::move(pending_.begin()->second);
    pending_.erase(pending_.begin());
    ESLEV_RETURN_NOT_OK(Forward(port, tuple));
  }
  return Status::OK();
}

Status CleaningStage::ProcessTuple(size_t port, const Tuple& tuple) {
  ESLEV_RETURN_NOT_OK(Absorb(port, tuple));
  return ReleasePending();
}

Status CleaningStage::ProcessHeartbeat(Timestamp now) {
  frontier_ = std::max(frontier_, now);
  ESLEV_RETURN_NOT_OK(CloseGroups());
  ESLEV_RETURN_NOT_OK(ReleasePending());
  const Timestamp threshold = ReleaseThreshold();
  if (threshold != kMinTimestamp && threshold > hb_out_) {
    hb_out_ = threshold;
    return ForwardHeartbeat(threshold);
  }
  return Status::OK();
}

Status CleaningStage::SaveState(BinaryEncoder* enc) const {
  enc->PutU64(open_seq_);
  enc->PutU64(pending_seq_);
  enc->PutI64(frontier_);
  enc->PutI64(hb_out_);
  enc->PutU64(dups_suppressed_);
  enc->PutU64(spurious_filtered_);
  enc->PutU64(interpolated_);
  enc->PutU64(emitted_);
  enc->PutU32(static_cast<uint32_t>(open_.size()));
  for (const auto& [key, group] : open_) {
    enc->PutU64(key.second);
    enc->PutU32(static_cast<uint32_t>(group.port));
    enc->PutU64(group.count);
    enc->PutTuple(group.anchor);
    enc->PutBool(group.anchor.synthesized());
  }
  enc->PutU32(static_cast<uint32_t>(key_state_.size()));
  for (const auto& [pk, ks] : key_state_) {
    enc->PutU32(static_cast<uint32_t>(pk.first));
    enc->PutTuple(ks.last);
    enc->PutI64(ks.ema_gap_us);
  }
  enc->PutU32(static_cast<uint32_t>(pending_.size()));
  for (const auto& [key, entry] : pending_) {
    enc->PutU64(key.second);
    enc->PutU32(static_cast<uint32_t>(entry.first));
    enc->PutTuple(entry.second);
    enc->PutBool(entry.second.synthesized());
  }
  return Status::OK();
}

Status CleaningStage::RestoreState(BinaryDecoder* dec) {
  ESLEV_ASSIGN_OR_RETURN(open_seq_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(pending_seq_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(frontier_, dec->GetI64());
  ESLEV_ASSIGN_OR_RETURN(hb_out_, dec->GetI64());
  ESLEV_ASSIGN_OR_RETURN(dups_suppressed_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(spurious_filtered_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(interpolated_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(emitted_, dec->GetU64());
  open_.clear();
  open_index_.clear();
  key_state_.clear();
  pending_.clear();
  ESLEV_ASSIGN_OR_RETURN(uint32_t n_open, dec->GetU32());
  for (uint32_t i = 0; i < n_open; ++i) {
    ESLEV_ASSIGN_OR_RETURN(uint64_t seq, dec->GetU64());
    ESLEV_ASSIGN_OR_RETURN(uint32_t port, dec->GetU32());
    ESLEV_ASSIGN_OR_RETURN(uint64_t count, dec->GetU64());
    ESLEV_ASSIGN_OR_RETURN(Tuple anchor, dec->GetTuple());
    ESLEV_ASSIGN_OR_RETURN(bool synthesized, dec->GetBool());
    anchor.set_synthesized(synthesized);
    const std::string key = SmoothingKey(anchor);
    const auto anchor_key = std::make_pair(anchor.ts(), seq);
    open_index_.emplace(PortKey{port, key}, anchor_key);
    open_.emplace(anchor_key, Group{port, key, std::move(anchor), count});
  }
  ESLEV_ASSIGN_OR_RETURN(uint32_t n_keys, dec->GetU32());
  for (uint32_t i = 0; i < n_keys; ++i) {
    ESLEV_ASSIGN_OR_RETURN(uint32_t port, dec->GetU32());
    ESLEV_ASSIGN_OR_RETURN(Tuple last, dec->GetTuple());
    ESLEV_ASSIGN_OR_RETURN(int64_t ema, dec->GetI64());
    KeyState ks;
    ks.has_last = true;
    ks.last = std::move(last);
    ks.ema_gap_us = ema;
    key_state_.emplace(PortKey{port, SmoothingKey(ks.last)}, std::move(ks));
  }
  ESLEV_ASSIGN_OR_RETURN(uint32_t n_pending, dec->GetU32());
  for (uint32_t i = 0; i < n_pending; ++i) {
    ESLEV_ASSIGN_OR_RETURN(uint64_t seq, dec->GetU64());
    ESLEV_ASSIGN_OR_RETURN(uint32_t port, dec->GetU32());
    ESLEV_ASSIGN_OR_RETURN(Tuple tuple, dec->GetTuple());
    ESLEV_ASSIGN_OR_RETURN(bool synthesized, dec->GetBool());
    tuple.set_synthesized(synthesized);
    pending_.emplace(std::make_pair(tuple.ts(), seq),
                     std::make_pair(static_cast<size_t>(port),
                                    std::move(tuple)));
  }
  return Status::OK();
}

}  // namespace eslev
