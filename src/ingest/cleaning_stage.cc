#include "ingest/cleaning_stage.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

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

// Whether column `i` of `tuple` belongs to its smoothing key: every
// column except the timestamp-typed ones (event-time mirror columns
// differ between duplicates of one read).
bool IsKeyColumn(const Tuple& tuple, size_t i) {
  const SchemaPtr& schema = tuple.schema();
  return schema == nullptr || i >= schema->num_fields() ||
         schema->field(i).type != TypeId::kTimestamp;
}

// Grouping order on one key column (DESIGN.md §15), negative, zero or
// positive: by type first, so values of different types never group and
// NULL groups only with NULL; then by value, where a DOUBLE NaN equals
// any NaN and sorts above every number, and -0.0 equals 0.0.
int CompareKeyValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return a.type() < b.type() ? -1 : 1;
  const auto three_way = [](const auto& x, const auto& y) {
    return x < y ? -1 : (y < x ? 1 : 0);
  };
  switch (a.type()) {
    case TypeId::kNull:
      return 0;
    case TypeId::kBool:
      return three_way(a.bool_value(), b.bool_value());
    case TypeId::kInt64:
      return three_way(a.int_value(), b.int_value());
    case TypeId::kDouble: {
      const double x = a.double_value();
      const double y = b.double_value();
      if (std::isnan(x) || std::isnan(y)) {
        return std::isnan(x) == std::isnan(y) ? 0 : (std::isnan(x) ? 1 : -1);
      }
      return three_way(x, y);
    }
    case TypeId::kString:
      return a.string_value().compare(b.string_value());
    case TypeId::kTimestamp:
      return three_way(a.time_value(), b.time_value());
  }
  return 0;
}

// Agrees with CompareKeyValue() == 0.
size_t HashKeyValue(const Value& v) {
  if (v.type() == TypeId::kDouble) {
    const double d = v.double_value();
    if (std::isnan(d)) return 0x7ff8000000000000ULL;
    if (d == 0) return std::hash<double>{}(0.0);
  }
  return v.Hash();
}

size_t MixHash(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

size_t CleaningStage::KeyHash(size_t port, const Tuple& tuple) {
  size_t h = std::hash<size_t>{}(port);
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (IsKeyColumn(tuple, i)) h = MixHash(h, HashKeyValue(tuple.value(i)));
  }
  return h;
}

bool CleaningStage::SameKey(const Tuple& a, const Tuple& b) {
  size_t i = 0;
  size_t j = 0;
  for (;;) {
    while (i < a.size() && !IsKeyColumn(a, i)) ++i;
    while (j < b.size() && !IsKeyColumn(b, j)) ++j;
    if (i == a.size() || j == b.size()) return i == a.size() && j == b.size();
    if (CompareKeyValue(a.value(i), b.value(j)) != 0) return false;
    ++i;
    ++j;
  }
}

CleaningStage::StateKey CleaningStage::MakeStateKey(size_t port,
                                                    const Tuple& tuple) {
  StateKey key{port, {}};
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (IsKeyColumn(tuple, i)) key.second.push_back(tuple.value(i));
  }
  return key;
}

bool CleaningStage::StateKeyLess::operator()(const StateKey& a,
                                             const StateKey& b) const {
  if (a.first != b.first) return a.first < b.first;
  return std::lexicographical_compare(
      a.second.begin(), a.second.end(), b.second.begin(), b.second.end(),
      [](const Value& x, const Value& y) { return CompareKeyValue(x, y) < 0; });
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
  const Timestamp ts = tuple.ts();
  pending_.Push(ts, pending_seq_++, PortTuple{port, std::move(tuple)});
}

void CleaningStage::Interpolate(size_t port, const Tuple& anchor) {
  KeyState& ks = key_state_[MakeStateKey(port, anchor)];
  if (ks.has_last) {
    const Duration gap = anchor.ts() - ks.last.ts();
    if (gap > 0) {
      // Configured period, or the per-key EMA estimate; no fills until
      // an estimate exists, and never more than kMaxFillsPerGap — a gap
      // needing more means the period estimate is degenerate.
      constexpr int64_t kMaxFillsPerGap = 1000;
      const Duration period = period_ > 0 ? period_ : ks.ema_gap_us;
      if (period > 0 && gap > period && gap <= horizon_ &&
          gap / period <= kMaxFillsPerGap) {
        for (Timestamp ts = ks.last.ts() + period; ts < anchor.ts();
             ts += period) {
          Tuple synth = ShiftTuple(ks.last, ts - ks.last.ts());
          synth.set_synthesized(true);
          ++interpolated_;
          QueueEmission(port, std::move(synth));
        }
      }
      ks.ema_gap_us = ks.ema_gap_us == 0 ? gap : (gap + 3 * ks.ema_gap_us) / 4;
    }
  }
  ks.has_last = true;
  ks.last = anchor;
}

void CleaningStage::CloseGroup(size_t port, uint64_t count, Tuple anchor) {
  if (static_cast<int64_t>(count) < min_count_) {
    spurious_filtered_ += count;
    return;
  }
  dups_suppressed_ += count - 1;
  if (interpolating()) Interpolate(port, anchor);
  QueueEmission(port, std::move(anchor));
}

uint32_t CleaningStage::FindGroup(size_t hash, size_t port,
                                  const Tuple& tuple) const {
  if (buckets_.empty()) return kNoSlot;
  for (uint32_t s = buckets_[hash & (buckets_.size() - 1)]; s != kNoSlot;
       s = groups_[s].next) {
    const Group& g = groups_[s];
    if (g.hash == hash && g.port == port && SameKey(g.anchor, tuple)) {
      return s;
    }
  }
  return kNoSlot;
}

void CleaningStage::LinkGroup(uint32_t slot) {
  if (open_.size() > buckets_.size()) {
    // Grow to twice the open groups and re-thread every open slot (the
    // new slot is already in `open_`).
    size_t n = 16;
    while (n < 2 * open_.size()) n *= 2;
    buckets_.assign(n, kNoSlot);
    for (const auto& e : open_.entries()) {
      Group& g = groups_[e.item];
      uint32_t& head = buckets_[g.hash & (n - 1)];
      g.next = head;
      head = e.item;
    }
    return;
  }
  Group& g = groups_[slot];
  uint32_t& head = buckets_[g.hash & (buckets_.size() - 1)];
  g.next = head;
  head = slot;
}

void CleaningStage::UnlinkGroup(uint32_t slot) {
  uint32_t* link = &buckets_[groups_[slot].hash & (buckets_.size() - 1)];
  while (*link != slot) link = &groups_[*link].next;
  *link = groups_[slot].next;
}

void CleaningStage::OpenGroup(size_t port, size_t hash, Tuple tuple,
                              uint64_t count, uint64_t seq) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(groups_.size());
    groups_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Group& g = groups_[slot];
  g.port = port;
  g.hash = hash;
  g.count = count;
  const Timestamp ts = tuple.ts();
  g.anchor = std::move(tuple);
  open_.Push(ts, seq, slot);
  LinkGroup(slot);
}

void CleaningStage::CloseGroups() {
  while (!open_.empty() && open_.top().ts + window_ < frontier_) {
    const uint32_t slot = open_.Pop().item;
    UnlinkGroup(slot);
    Group& g = groups_[slot];
    CloseGroup(g.port, g.count, std::move(g.anchor));
    free_slots_.push_back(slot);
  }
}

void CleaningStage::Absorb(size_t port, Tuple tuple) {
  frontier_ = std::max(frontier_, tuple.ts());
  // Close passed groups first: if this key's group window ended before
  // this read, the read anchors a fresh group.
  CloseGroups();
  const size_t hash = KeyHash(port, tuple);
  const uint32_t found = FindGroup(hash, port, tuple);
  if (found != kNoSlot) {
    ++groups_[found].count;  // a copy: counted, then dropped
    return;
  }
  OpenGroup(port, hash, std::move(tuple), 1, open_seq_++);
}

Status CleaningStage::ReleasePending() {
  const Timestamp threshold = ReleaseThreshold();
  if (threshold == kMinTimestamp) return Status::OK();
  while (!pending_.empty() && pending_.top().ts <= threshold) {
    PortTuple out = pending_.Pop().item;
    ESLEV_RETURN_NOT_OK(Forward(out.port, std::move(out.tuple)));
  }
  return Status::OK();
}

Status CleaningStage::TakeTuple(size_t port, Tuple tuple) {
  Absorb(port, std::move(tuple));
  return ReleasePending();
}

Status CleaningStage::ProcessHeartbeat(Timestamp now) {
  frontier_ = std::max(frontier_, now);
  CloseGroups();
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
  for (const auto* e : open_.Sorted()) {
    const Group& group = groups_[e->item];
    enc->PutU64(e->seq);
    enc->PutU32(static_cast<uint32_t>(group.port));
    enc->PutU64(group.count);
    enc->PutTuple(group.anchor);
    enc->PutBool(group.anchor.synthesized());
  }
  enc->PutU32(static_cast<uint32_t>(key_state_.size()));
  for (const auto& [key, ks] : key_state_) {
    enc->PutU32(static_cast<uint32_t>(key.first));
    enc->PutTuple(ks.last);
    enc->PutI64(ks.ema_gap_us);
  }
  enc->PutU32(static_cast<uint32_t>(pending_.size()));
  for (const auto* e : pending_.Sorted()) {
    enc->PutU64(e->seq);
    enc->PutU32(static_cast<uint32_t>(e->item.port));
    enc->PutTuple(e->item.tuple);
    enc->PutBool(e->item.tuple.synthesized());
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
  groups_.clear();
  free_slots_.clear();
  open_.Clear();
  buckets_.clear();
  key_state_.clear();
  pending_.Clear();
  ESLEV_ASSIGN_OR_RETURN(uint32_t n_open, dec->GetU32());
  for (uint32_t i = 0; i < n_open; ++i) {
    ESLEV_ASSIGN_OR_RETURN(uint64_t seq, dec->GetU64());
    ESLEV_ASSIGN_OR_RETURN(uint32_t port, dec->GetU32());
    ESLEV_ASSIGN_OR_RETURN(uint64_t count, dec->GetU64());
    ESLEV_ASSIGN_OR_RETURN(Tuple anchor, dec->GetTuple());
    ESLEV_ASSIGN_OR_RETURN(bool synthesized, dec->GetBool());
    anchor.set_synthesized(synthesized);
    const size_t hash = KeyHash(port, anchor);
    OpenGroup(port, hash, std::move(anchor), count, seq);
  }
  // Checkpoints taken without interpolation before the state became
  // interpolation-only still carry entries: read and drop them.
  ESLEV_ASSIGN_OR_RETURN(uint32_t n_keys, dec->GetU32());
  for (uint32_t i = 0; i < n_keys; ++i) {
    ESLEV_ASSIGN_OR_RETURN(uint32_t port, dec->GetU32());
    ESLEV_ASSIGN_OR_RETURN(Tuple last, dec->GetTuple());
    ESLEV_ASSIGN_OR_RETURN(int64_t ema, dec->GetI64());
    if (!interpolating()) continue;
    KeyState ks;
    ks.has_last = true;
    ks.last = std::move(last);
    ks.ema_gap_us = ema;
    key_state_.emplace(MakeStateKey(port, ks.last), std::move(ks));
  }
  ESLEV_ASSIGN_OR_RETURN(uint32_t n_pending, dec->GetU32());
  for (uint32_t i = 0; i < n_pending; ++i) {
    ESLEV_ASSIGN_OR_RETURN(uint64_t seq, dec->GetU64());
    ESLEV_ASSIGN_OR_RETURN(uint32_t port, dec->GetU32());
    ESLEV_ASSIGN_OR_RETURN(Tuple tuple, dec->GetTuple());
    ESLEV_ASSIGN_OR_RETURN(bool synthesized, dec->GetBool());
    tuple.set_synthesized(synthesized);
    const Timestamp ts = tuple.ts();
    pending_.Push(ts, seq, PortTuple{port, std::move(tuple)});
  }
  return Status::OK();
}

}  // namespace eslev
