// ExceptionSeqOperator: the paper's EXCEPTION_SEQ / CLEVEL_SEQ operators
// (§3.1.3), built on Sequence Completion Levels.
//
// The operator tracks one partial sequence at a time. A terminal event
// occurs when the partial can no longer extend:
//   1. a wrong incoming tuple (the partial's level k is final; under
//      RECENT a repeat of an already-matched position *replaces* it and
//      the partial survives truncated, per the paper's (A,B)+B example);
//   2. an incoming tuple that cannot start a new sequence (level-0
//      exception on the incoming tuple itself);
//   3. expiration of the sliding window with the partial incomplete
//      (*active expiration*: detected on heartbeats, without arrivals).
// A sequence that completes all n positions terminates at level n.
//
// Star positions (the paper: "EXCEPTION_SEQ can also allow repeating
// star sequences") accumulate groups: while a starred position is the
// most recent one, further arrivals on it extend the group subject to
// the position's star gate (`.previous.` conjuncts); a gate failure is
// a violation like any other wrong tuple. The final position may not be
// starred — a trailing star never completes, so levels against it are
// undefined.
//
// Terminal events whose level satisfies `level_op level_rhs` are emitted
// (EXCEPTION_SEQ is the special case `level < n`; CLEVEL_SEQ comparisons
// lower to other ops). The emitted row is projected over the partial's
// slots; positions not reached project as NULL, and for a wrong-tuple
// exception the offending tuple is bound at its own position so alerts
// can report it.

#ifndef ESLEV_CEP_EXCEPTION_SEQ_OPERATOR_H_
#define ESLEV_CEP_EXCEPTION_SEQ_OPERATOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "cep/seq_config.h"
#include "stream/operator.h"

namespace eslev {

class ExceptionSeqOperator : public Operator {
 public:
  static Result<std::unique_ptr<ExceptionSeqOperator>> Make(
      ExceptionSeqConfig config);

  /// \brief The validated configuration the operator runs (cost model).
  const ExceptionSeqConfig& config() const { return config_; }

  /// \brief Port == position index.
  Status ProcessTuple(size_t port, const Tuple& tuple) override;

  /// \brief Active expiration: emits window-expiry exceptions even when
  /// no tuples arrive.
  Status ProcessHeartbeat(Timestamp now) override;

  uint64_t exceptions_emitted() const { return exceptions_emitted_; }
  uint64_t sequences_completed() const { return sequences_completed_; }
  size_t partial_level() const { return partial_.size(); }

  /// \brief Upward completion-level transitions (a partial advancing to
  /// the next position, including star-group openings after a replace).
  uint64_t level_transitions() const { return level_transitions_; }
  /// \brief Window-expiry terminals (scenario 3), however detected.
  uint64_t window_expirations() const { return window_expirations_; }
  /// \brief Window-expiry terminals detected by a heartbeat rather than
  /// an arrival — the paper's *active expiration* path.
  uint64_t active_expirations() const { return active_expirations_; }

  void AppendStats(OperatorStatList* out) const override;

  /// \brief Checkpoint the partial sequence, its anchored window
  /// deadline, and the terminal-event counters, so active expiration
  /// still fires at the right time after a restore.
  Status SaveState(BinaryEncoder* enc) const override;
  Status RestoreState(BinaryDecoder* dec) override;

 private:
  explicit ExceptionSeqOperator(ExceptionSeqConfig config);

  Result<bool> PassesArrivalFilter(size_t pos, const Tuple& tuple);
  Result<bool> PassesStarGate(size_t pos, const Tuple& tuple,
                              const Tuple& previous);
  Result<bool> PairwiseOkWithPartial(size_t pos, const Tuple& tuple);

  // Emit a terminal event at the partial's current level; `offender`
  // (optional) is bound at position `offender_pos`.
  Status Terminal(size_t level, const Tuple* offender, size_t offender_pos);

  // Window deadline for the current partial, if armed.
  void ArmDeadline();
  Status CheckExpiry(Timestamp now, bool from_heartbeat = false);

  Status StartOrLevelZero(size_t pos, const Tuple& tuple);
  Status AppendPosition(size_t pos, const Tuple& tuple);

  ExceptionSeqConfig config_;
  size_t n_;
  // One tuple group per filled position (size 1 unless starred).
  std::vector<std::vector<Tuple>> partial_;
  std::optional<Timestamp> deadline_;
  uint64_t exceptions_emitted_ = 0;
  uint64_t sequences_completed_ = 0;
  uint64_t level_transitions_ = 0;
  uint64_t window_expirations_ = 0;
  uint64_t active_expirations_ = 0;
  RowScratch scratch_;
};

}  // namespace eslev

#endif  // ESLEV_CEP_EXCEPTION_SEQ_OPERATOR_H_
