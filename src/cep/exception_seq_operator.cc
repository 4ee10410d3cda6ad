#include "cep/exception_seq_operator.h"

#include <algorithm>

namespace eslev {

Result<std::unique_ptr<ExceptionSeqOperator>> ExceptionSeqOperator::Make(
    ExceptionSeqConfig config) {
  const size_t n = config.positions.size();
  if (n < 2) {
    return Status::Invalid("EXCEPTION_SEQ requires at least two positions");
  }
  if (config.positions.back().star) {
    return Status::NotImplemented(
        "a trailing star in EXCEPTION_SEQ never completes, so completion "
        "levels against it are undefined");
  }
  if (config.mode != PairingMode::kConsecutive &&
      config.mode != PairingMode::kRecent) {
    return Status::NotImplemented(
        "EXCEPTION_SEQ supports CONSECUTIVE (default) and RECENT modes");
  }
  if (config.window) {
    if (config.window->direction == WindowDirection::kPreceding) {
      return Status::NotImplemented(
          "EXCEPTION_SEQ windows must be FOLLOWING-anchored (a PRECEDING "
          "deadline is unknowable in advance)");
    }
    if (config.window->anchor >= n) {
      return Status::Invalid("window anchor out of range");
    }
  }
  if (config.arrival_filters.empty()) config.arrival_filters.resize(n);
  if (config.star_gates.empty()) config.star_gates.resize(n);
  if (config.arrival_filters.size() != n || config.star_gates.size() != n) {
    return Status::Invalid("filter/gate vectors must match position count");
  }
  for (const auto& c : config.pairwise) {
    if (c.pos_a >= c.pos_b || c.pos_b >= n) {
      return Status::Invalid("malformed pairwise constraint");
    }
  }
  if (!config.out_schema || config.projection.empty()) {
    return Status::Invalid("EXCEPTION_SEQ operator requires a projection");
  }
  return std::unique_ptr<ExceptionSeqOperator>(
      new ExceptionSeqOperator(std::move(config)));
}

ExceptionSeqOperator::ExceptionSeqOperator(ExceptionSeqConfig config)
    : config_(std::move(config)),
      n_(config_.positions.size()),
      scratch_(n_) {}

Result<bool> ExceptionSeqOperator::PassesArrivalFilter(size_t pos,
                                                       const Tuple& tuple) {
  if (!config_.arrival_filters[pos]) return true;
  scratch_.Clear();
  scratch_.SetTuple(pos, &tuple);
  return EvalPredicate(*config_.arrival_filters[pos], scratch_.Row());
}

Result<bool> ExceptionSeqOperator::PassesStarGate(size_t pos,
                                                  const Tuple& tuple,
                                                  const Tuple& previous) {
  if (!config_.star_gates[pos]) return true;
  scratch_.Clear();
  scratch_.SetTuple(pos, &tuple);
  scratch_.SetPrevious(pos, &previous);
  return EvalPredicate(*config_.star_gates[pos], scratch_.Row());
}

Result<bool> ExceptionSeqOperator::PairwiseOkWithPartial(size_t pos,
                                                         const Tuple& tuple) {
  for (const auto& c : config_.pairwise) {
    if (c.pos_b != pos || c.pos_a >= partial_.size()) continue;
    scratch_.Clear();
    scratch_.SetTuple(c.pos_a, &partial_[c.pos_a].back());
    if (config_.positions[c.pos_a].star) {
      scratch_.SetStarGroup(c.pos_a, &partial_[c.pos_a]);
    }
    scratch_.SetTuple(c.pos_b, &tuple);
    ESLEV_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*c.expr, scratch_.Row()));
    if (!ok) return false;
  }
  return true;
}

namespace {
bool LevelSatisfies(int64_t level, BinaryOp op, int64_t rhs) {
  switch (op) {
    case BinaryOp::kLt:
      return level < rhs;
    case BinaryOp::kLe:
      return level <= rhs;
    case BinaryOp::kGt:
      return level > rhs;
    case BinaryOp::kGe:
      return level >= rhs;
    case BinaryOp::kEq:
      return level == rhs;
    case BinaryOp::kNe:
      return level != rhs;
    default:
      return false;
  }
}
}  // namespace

Status ExceptionSeqOperator::Terminal(size_t level, const Tuple* offender,
                                      size_t offender_pos) {
  const bool completed = level == n_;
  if (completed) {
    ++sequences_completed_;
  }
  if (!LevelSatisfies(static_cast<int64_t>(level), config_.level_op,
                      config_.level_rhs)) {
    return Status::OK();
  }
  if (!completed) ++exceptions_emitted_;

  scratch_.Clear();
  Timestamp ts = 0;
  // Starred positions the partial never reached project as empty groups
  // (COUNT == 0, FIRST/LAST == NULL) rather than errors.
  static const std::vector<Tuple> kEmptyGroup;
  for (size_t i = 0; i < n_; ++i) {
    if (config_.positions[i].star) scratch_.SetStarGroup(i, &kEmptyGroup);
  }
  for (size_t i = 0; i < level && i < partial_.size(); ++i) {
    scratch_.SetTuple(i, &partial_[i].back());
    if (config_.positions[i].star) {
      scratch_.SetStarGroup(i, &partial_[i]);
    }
    ts = std::max(ts, partial_[i].back().ts());
  }
  if (offender != nullptr) {
    scratch_.SetTuple(offender_pos, offender);
    ts = std::max(ts, offender->ts());
  }
  std::vector<Value> values;
  values.reserve(config_.projection.size());
  for (const auto& e : config_.projection) {
    ESLEV_ASSIGN_OR_RETURN(Value v, e->Eval(scratch_.Row()));
    values.push_back(std::move(v));
  }
  ESLEV_ASSIGN_OR_RETURN(Tuple out,
                         MakeTuple(config_.out_schema, std::move(values), ts));
  return Emit(out);
}

void ExceptionSeqOperator::ArmDeadline() {
  if (!config_.window || deadline_) return;
  const size_t anchor = config_.window->anchor;
  if (partial_.size() > anchor) {
    deadline_ = partial_[anchor].front().ts() + config_.window->length;
  }
}

Status ExceptionSeqOperator::CheckExpiry(Timestamp now, bool from_heartbeat) {
  if (!deadline_ || now <= *deadline_) return Status::OK();
  // Window expired with the partial incomplete (scenario 3).
  ++window_expirations_;
  if (from_heartbeat) ++active_expirations_;
  const size_t level = partial_.size();
  ESLEV_RETURN_NOT_OK(Terminal(level, nullptr, 0));
  partial_.clear();
  deadline_.reset();
  return Status::OK();
}

void ExceptionSeqOperator::AppendStats(OperatorStatList* out) const {
  out->push_back({"partial_level", static_cast<int64_t>(partial_.size())});
  out->push_back(
      {"level_transitions", static_cast<int64_t>(level_transitions_)});
  out->push_back(
      {"window_expirations", static_cast<int64_t>(window_expirations_)});
  out->push_back(
      {"active_expirations", static_cast<int64_t>(active_expirations_)});
  out->push_back(
      {"exceptions_emitted", static_cast<int64_t>(exceptions_emitted_)});
  out->push_back(
      {"sequences_completed", static_cast<int64_t>(sequences_completed_)});
}

Status ExceptionSeqOperator::AppendPosition(size_t pos, const Tuple& tuple) {
  (void)pos;
  partial_.push_back({tuple});
  ++level_transitions_;
  ArmDeadline();
  if (partial_.size() == n_) {
    ESLEV_RETURN_NOT_OK(Terminal(n_, nullptr, 0));
    partial_.clear();
    deadline_.reset();
  }
  return Status::OK();
}

Status ExceptionSeqOperator::StartOrLevelZero(size_t pos, const Tuple& tuple) {
  partial_.clear();
  deadline_.reset();
  if (pos == 0) {
    return AppendPosition(0, tuple);
  }
  // Scenario 2: the incoming tuple cannot start a sequence.
  return Terminal(0, &tuple, pos);
}

Status ExceptionSeqOperator::ProcessTuple(size_t port, const Tuple& tuple) {
  if (port >= n_) {
    return Status::ExecutionError("EXCEPTION_SEQ port out of range");
  }
  ESLEV_ASSIGN_OR_RETURN(bool pass, PassesArrivalFilter(port, tuple));
  if (!pass) return Status::OK();
  // The previous partial may have expired before this arrival.
  ESLEV_RETURN_NOT_OK(CheckExpiry(tuple.ts()));

  const size_t k = partial_.size();

  // Repeat arrival on the current starred position: extend the group.
  if (k > 0 && port == k - 1 && config_.positions[k - 1].star) {
    ESLEV_ASSIGN_OR_RETURN(
        bool same_group, PassesStarGate(port, tuple, partial_[k - 1].back()));
    if (same_group) {
      ESLEV_ASSIGN_OR_RETURN(bool ok, PairwiseOkWithPartial(port, tuple));
      if (ok) {
        partial_[k - 1].push_back(tuple);
        return Status::OK();
      }
    }
    // Gate or qualification failure: the partial cannot extend.
    ESLEV_RETURN_NOT_OK(Terminal(k, &tuple, port));
    return StartOrLevelZero(port, tuple);
  }

  if (port == k) {
    ESLEV_ASSIGN_OR_RETURN(bool ok, PairwiseOkWithPartial(port, tuple));
    if (ok) {
      return AppendPosition(port, tuple);
    }
    // Fails the qualifying conditions: treat as a wrong tuple below.
  }

  // Wrong incoming tuple (scenario 1).
  if (k > 0) {
    if (config_.mode == PairingMode::kRecent && port < k) {
      // The paper's (A,B)+B case: the new tuple replaces its position;
      // the abandoned partial raises an exception first.
      ESLEV_RETURN_NOT_OK(Terminal(k, &tuple, port));
      partial_.resize(port);
      deadline_.reset();
      ESLEV_ASSIGN_OR_RETURN(bool ok, PairwiseOkWithPartial(port, tuple));
      if (ok) {
        partial_.push_back({tuple});
        ++level_transitions_;
        ArmDeadline();
      } else {
        return StartOrLevelZero(port, tuple);
      }
      return Status::OK();
    }
    ESLEV_RETURN_NOT_OK(Terminal(k, &tuple, port));
    return StartOrLevelZero(port, tuple);
  }
  return StartOrLevelZero(port, tuple);
}

Status ExceptionSeqOperator::ProcessHeartbeat(Timestamp now) {
  ESLEV_RETURN_NOT_OK(CheckExpiry(now, /*from_heartbeat=*/true));
  return EmitHeartbeat(now);
}

Status ExceptionSeqOperator::SaveState(BinaryEncoder* enc) const {
  enc->PutU8(kSeqCheckpointTag);
  enc->PutU64(exceptions_emitted_);
  enc->PutU64(sequences_completed_);
  enc->PutU64(level_transitions_);
  enc->PutU64(window_expirations_);
  enc->PutU64(active_expirations_);
  enc->PutBool(deadline_.has_value());
  if (deadline_) enc->PutI64(*deadline_);
  enc->PutU32(static_cast<uint32_t>(partial_.size()));
  for (const std::vector<Tuple>& group : partial_) {
    enc->PutU32(static_cast<uint32_t>(group.size()));
    for (const Tuple& t : group) enc->PutTuple(t);
  }
  return Status::OK();
}

Status ExceptionSeqOperator::RestoreState(BinaryDecoder* dec) {
  ESLEV_ASSIGN_OR_RETURN(uint8_t tag, dec->GetU8());
  ESLEV_RETURN_NOT_OK(CheckSeqCheckpointTag(tag, "EXCEPTION_SEQ"));
  ESLEV_ASSIGN_OR_RETURN(exceptions_emitted_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(sequences_completed_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(level_transitions_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(window_expirations_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(active_expirations_, dec->GetU64());
  ESLEV_ASSIGN_OR_RETURN(bool has_deadline, dec->GetBool());
  deadline_.reset();
  if (has_deadline) {
    ESLEV_ASSIGN_OR_RETURN(Timestamp d, dec->GetI64());
    deadline_ = d;
  }
  ESLEV_ASSIGN_OR_RETURN(uint32_t level, dec->GetU32());
  if (level > n_) {
    return Status::IoError(
        "EXCEPTION_SEQ checkpoint: partial level exceeds position count");
  }
  partial_.clear();
  for (uint32_t i = 0; i < level; ++i) {
    ESLEV_ASSIGN_OR_RETURN(uint32_t ntuples, dec->GetU32());
    if (ntuples == 0) {
      return Status::IoError("EXCEPTION_SEQ checkpoint: empty position group");
    }
    ESLEV_RETURN_NOT_OK(
        dec->CheckCount(ntuples, BinaryDecoder::kMinTupleBytes));
    std::vector<Tuple> group;
    group.reserve(ntuples);
    for (uint32_t j = 0; j < ntuples; ++j) {
      ESLEV_ASSIGN_OR_RETURN(Tuple t, dec->GetTuple());
      group.push_back(std::move(t));
    }
    partial_.push_back(std::move(group));
  }
  return Status::OK();
}

}  // namespace eslev
