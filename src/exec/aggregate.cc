#include "exec/aggregate.h"

namespace eslev {

AggregateOperator::AggregateOperator(std::vector<AggSpec> aggs,
                                     std::vector<BoundExprPtr> group_by,
                                     std::vector<BoundExprPtr> projection,
                                     BoundExprPtr having, SchemaPtr out_schema,
                                     std::optional<WindowSpec> window)
    : aggs_(std::move(aggs)),
      group_by_(std::move(group_by)),
      projection_(std::move(projection)),
      having_(std::move(having)),
      out_schema_(std::move(out_schema)),
      window_(window),
      all_retractable_(true),
      scratch_(1) {
  for (const AggSpec& a : aggs_) {
    if (!a.fn->supports_retract) all_retractable_ = false;
  }
  if (window_) {
    buffer_ = std::make_unique<WindowBuffer>(window_->row_based,
                                             window_->length);
  }
}

Result<AggregateOperator::GroupKey> AggregateOperator::KeyOf(
    const Tuple& tuple) {
  GroupKey key;
  key.reserve(group_by_.size());
  scratch_.SetTuple(0, &tuple);
  for (const auto& e : group_by_) {
    ESLEV_ASSIGN_OR_RETURN(Value v, e->Eval(scratch_.Row()));
    key.push_back(v.GroupKey());
  }
  return key;
}

AggregateOperator::Group* AggregateOperator::GetOrCreateGroup(
    const GroupKey& key) {
  auto it = groups_.find(key);
  if (it != groups_.end()) return &it->second;
  Group g;
  g.states.reserve(aggs_.size());
  for (const AggSpec& a : aggs_) {
    g.states.push_back(a.fn->make_state());
  }
  return &groups_.emplace(key, std::move(g)).first->second;
}

Status AggregateOperator::AccumulateInto(Group* group, const Tuple& tuple,
                                         int sign) {
  scratch_.SetTuple(0, &tuple);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    Value v = Value::Int(1);  // COUNT(*) counts every row
    if (!aggs_[i].count_star) {
      ESLEV_ASSIGN_OR_RETURN(v, aggs_[i].arg->Eval(scratch_.Row()));
    }
    if (sign > 0) {
      ESLEV_RETURN_NOT_OK(group->states[i]->Accumulate(v));
    } else {
      ESLEV_RETURN_NOT_OK(group->states[i]->Retract(v));
    }
  }
  return Status::OK();
}

Status AggregateOperator::RecomputeGroup(const GroupKey& key, Group* group) {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    group->states[i]->Reset();
  }
  if (!buffer_) return Status::OK();
  for (const Tuple& t : buffer_->tuples()) {
    ESLEV_ASSIGN_OR_RETURN(GroupKey k, KeyOf(t));
    if (k != key) continue;
    ESLEV_RETURN_NOT_OK(AccumulateInto(group, t, +1));
  }
  return Status::OK();
}

Status AggregateOperator::EvictExpired(Timestamp now) {
  if (!buffer_) return Status::OK();
  // Collect evicted tuples, then retract or recompute their groups.
  std::vector<Tuple> evicted;
  {
    // WindowBuffer evicts internally; capture what falls out first.
    const auto& tuples = buffer_->tuples();
    if (buffer_->row_based()) {
      // Row windows evict on Add only; nothing to do on pure time advance.
      (void)tuples;
    } else {
      for (const Tuple& t : tuples) {
        if (t.ts() < now - buffer_->length()) {
          evicted.push_back(t);
        } else {
          break;
        }
      }
    }
  }
  buffer_->EvictAt(now);
  if (evicted.empty()) return Status::OK();
  if (all_retractable_) {
    for (const Tuple& t : evicted) {
      ESLEV_ASSIGN_OR_RETURN(GroupKey key, KeyOf(t));
      auto it = groups_.find(key);
      if (it == groups_.end()) continue;
      ESLEV_RETURN_NOT_OK(AccumulateInto(&it->second, t, -1));
    }
  } else {
    // Recompute every group an evicted tuple belonged to.
    std::map<GroupKey, bool> dirty;
    for (const Tuple& t : evicted) {
      ESLEV_ASSIGN_OR_RETURN(GroupKey key, KeyOf(t));
      dirty[key] = true;
    }
    for (const auto& [key, _] : dirty) {
      auto it = groups_.find(key);
      if (it == groups_.end()) continue;
      ESLEV_RETURN_NOT_OK(RecomputeGroup(key, &it->second));
    }
  }
  return Status::OK();
}

Status AggregateOperator::ProcessTuple(size_t, const Tuple& tuple) {
  if (buffer_) {
    ESLEV_RETURN_NOT_OK(EvictExpired(tuple.ts()));
    if (buffer_->row_based()) {
      // Row window: evict the overflowing oldest tuple with retraction.
      if (buffer_->size() + 1 > static_cast<size_t>(buffer_->length()) &&
          !buffer_->empty()) {
        Tuple oldest = buffer_->tuples().front();
        ESLEV_ASSIGN_OR_RETURN(GroupKey key, KeyOf(oldest));
        auto it = groups_.find(key);
        if (it != groups_.end()) {
          if (all_retractable_) {
            ESLEV_RETURN_NOT_OK(AccumulateInto(&it->second, oldest, -1));
          }
        }
        buffer_->Add(tuple);  // evicts oldest internally
        if (!all_retractable_ && it != groups_.end()) {
          ESLEV_RETURN_NOT_OK(RecomputeGroup(key, &it->second));
        }
      } else {
        buffer_->Add(tuple);
      }
    } else {
      buffer_->Add(tuple);
    }
  }

  ESLEV_ASSIGN_OR_RETURN(GroupKey key, KeyOf(tuple));
  Group* group = GetOrCreateGroup(key);
  if (buffer_ && buffer_->row_based() && !all_retractable_) {
    ESLEV_RETURN_NOT_OK(RecomputeGroup(key, group));
  } else {
    ESLEV_RETURN_NOT_OK(AccumulateInto(group, tuple, +1));
  }

  // Project the group's current aggregate values.
  std::vector<Value> agg_values;
  agg_values.reserve(aggs_.size());
  for (const auto& st : group->states) {
    agg_values.push_back(st->Finalize());
  }
  scratch_.SetTuple(0, &tuple);
  scratch_.SetAggValues(&agg_values);
  if (having_) {
    ESLEV_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*having_, scratch_.Row()));
    if (!pass) {
      scratch_.SetAggValues(nullptr);
      return Status::OK();
    }
  }
  std::vector<Value> out;
  out.reserve(projection_.size());
  for (const auto& e : projection_) {
    auto v = e->Eval(scratch_.Row());
    if (!v.ok()) {
      scratch_.SetAggValues(nullptr);
      return v.status();
    }
    out.push_back(std::move(v).ValueUnsafe());
  }
  scratch_.SetAggValues(nullptr);
  ESLEV_ASSIGN_OR_RETURN(Tuple t,
                         MakeTuple(out_schema_, std::move(out), tuple.ts()));
  return Emit(t);
}

Status AggregateOperator::ProcessHeartbeat(Timestamp now) {
  ESLEV_RETURN_NOT_OK(EvictExpired(now));
  return EmitHeartbeat(now);
}

Status AggregateOperator::SaveState(BinaryEncoder* enc) const {
  enc->PutBool(buffer_ != nullptr);
  if (buffer_) {
    enc->PutU32(static_cast<uint32_t>(buffer_->size()));
    for (const Tuple& t : buffer_->tuples()) enc->PutTuple(t);
  }
  enc->PutU32(static_cast<uint32_t>(groups_.size()));
  for (const auto& [key, group] : groups_) {
    enc->PutU32(static_cast<uint32_t>(key.size()));
    for (const std::string& part : key) enc->PutString(part);
    enc->PutU32(static_cast<uint32_t>(group.states.size()));
    for (const auto& state : group.states) {
      ESLEV_ASSIGN_OR_RETURN(std::vector<Value> saved, state->SaveState());
      enc->PutU32(static_cast<uint32_t>(saved.size()));
      for (const Value& v : saved) enc->PutValue(v);
    }
  }
  return Status::OK();
}

Status AggregateOperator::RestoreState(BinaryDecoder* dec) {
  ESLEV_ASSIGN_OR_RETURN(bool has_buffer, dec->GetBool());
  if (has_buffer != (buffer_ != nullptr)) {
    return Status::IoError(
        "aggregate checkpoint: window configuration mismatch");
  }
  if (buffer_) {
    ESLEV_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
    std::deque<Tuple> tuples;
    for (uint32_t i = 0; i < n; ++i) {
      ESLEV_ASSIGN_OR_RETURN(Tuple t, dec->GetTuple());
      tuples.push_back(std::move(t));
    }
    buffer_->Assign(std::move(tuples));
  }
  ESLEV_ASSIGN_OR_RETURN(uint32_t ngroups, dec->GetU32());
  std::map<GroupKey, Group> groups;
  for (uint32_t g = 0; g < ngroups; ++g) {
    ESLEV_ASSIGN_OR_RETURN(uint32_t nparts, dec->GetU32());
    ESLEV_RETURN_NOT_OK(
        dec->CheckCount(nparts, BinaryDecoder::kMinStringBytes));
    GroupKey key;
    key.reserve(nparts);
    for (uint32_t i = 0; i < nparts; ++i) {
      ESLEV_ASSIGN_OR_RETURN(std::string part, dec->GetString());
      key.push_back(std::move(part));
    }
    ESLEV_ASSIGN_OR_RETURN(uint32_t nstates, dec->GetU32());
    if (nstates != aggs_.size()) {
      return Status::IoError(
          "aggregate checkpoint: accumulator count mismatch");
    }
    Group group;
    group.states.reserve(nstates);
    for (uint32_t i = 0; i < nstates; ++i) {
      ESLEV_ASSIGN_OR_RETURN(uint32_t nvals, dec->GetU32());
      ESLEV_RETURN_NOT_OK(
          dec->CheckCount(nvals, BinaryDecoder::kMinValueBytes));
      std::vector<Value> values;
      values.reserve(nvals);
      for (uint32_t j = 0; j < nvals; ++j) {
        ESLEV_ASSIGN_OR_RETURN(Value v, dec->GetValue());
        values.push_back(std::move(v));
      }
      auto state = aggs_[i].fn->make_state();
      ESLEV_RETURN_NOT_OK(state->RestoreState(values));
      group.states.push_back(std::move(state));
    }
    groups.emplace(std::move(key), std::move(group));
  }
  groups_ = std::move(groups);
  return Status::OK();
}

}  // namespace eslev
