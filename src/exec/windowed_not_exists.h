// WindowedNotExistsOperator: the windowed anti-semi-join behind the
// paper's Example 1 (duplicate elimination, PRECEDING window) and
// Example 8 (theft detection, PRECEDING AND FOLLOWING window synchronized
// across the sub-query boundary).
//
// Slot convention (matches the planner's scope construction):
//   slot 0 = inner (sub-query) tuple, slot 1 = outer tuple.
//
// Ports: 0 = outer stream, 1 = inner stream. When the sub-query reads the
// *same* stream as the outer query (both paper examples do), construct
// with `same_stream=true` and feed only port 0: each arrival is processed
// as the outer tuple first, then as an inner tuple, and a tuple never
// anti-joins against itself (it is not yet in the PRECEDING buffer when
// it probes, and it cannot cancel its own FOLLOWING pending entry).
//
// Keys: the planner splits the sub-query's WHERE into key pairs
// `inner.col = <expression over the outer tuple>` and a residual. The
// PRECEDING buffer is chained by the key columns' SQL-equality hash, so
// an outer tuple walks only its own bucket, compares the key columns
// natively, and runs only the residual through the interpreter. Without
// key pairs every buffered tuple shares one bucket. The outer key is
// read in place (BoundExpr::Peek): a key expression that is a column of
// the outer tuple points into its row, and only a computed one, or the
// key of a pending FOLLOWING entry, owns its values.
//
// FOLLOWING semantics: an outer tuple cannot be emitted before its
// following-window closes, so it is held *pending* and either cancelled
// by a matching inner arrival or emitted when time passes
// `outer.ts + length` (by later arrivals or heartbeats — active
// expiration).

#ifndef ESLEV_EXEC_WINDOWED_NOT_EXISTS_H_
#define ESLEV_EXEC_WINDOWED_NOT_EXISTS_H_

#include <deque>
#include <memory>
#include <vector>

#include "expr/bound_expr.h"
#include "sql/ast.h"
#include "stream/operator.h"
#include "stream/window_buffer.h"

namespace eslev {

class WindowedNotExistsOperator : public Operator {
 public:
  /// \brief One key pair of the sub-query's WHERE: the inner tuple's
  /// column `inner_column` must be SQL-equal to `outer_expr`, which reads
  /// only the outer tuple (slot 1).
  struct Key {
    size_t inner_column;
    BoundExprPtr outer_expr;
  };

  /// `residual` is the rest of the sub-query's WHERE (slots 0 and 1;
  /// null means TRUE). `outer_predicate` (optional, slot 1 only) gates
  /// which arrivals play the outer role; in same-stream mode it cannot be
  /// applied upstream because the inner side must still observe every
  /// tuple.
  WindowedNotExistsOperator(WindowSpec window, BoundExprPtr residual,
                            bool same_stream,
                            BoundExprPtr outer_predicate = nullptr,
                            std::vector<Key> keys = {});

  Status ProcessTuple(size_t port, const Tuple& tuple) override;
  Status ProcessHeartbeat(Timestamp now) override;

  /// \brief The window this anti-join runs (cost model, DESIGN.md §16).
  const WindowSpec& window() const { return window_; }
  bool same_stream() const { return same_stream_; }
  /// \brief True when the probe walks one key bucket instead of the
  /// whole window.
  bool keyed() const { return !keys_.empty(); }

  /// \brief Number of outer tuples currently held for their FOLLOWING
  /// window to close (observability for tests/benches).
  size_t pending_count() const { return pending_.size(); }
  size_t buffered_count() const { return buffer_.size(); }
  /// \brief Inner tuples compared against an outer tuple's NOT EXISTS
  /// probe (PRECEDING-side bucket walks plus FOLLOWING-side pending
  /// checks).
  uint64_t probe_comparisons() const { return probe_comparisons_; }

  void AppendStats(OperatorStatList* out) const override;

  /// \brief Checkpoint the inner window buffer, the pending outer tuples
  /// with their FOLLOWING deadlines, and the probe counter.
  Status SaveState(BinaryEncoder* enc) const override;
  Status RestoreState(BinaryDecoder* dec) override;

 private:
  struct Pending {
    Tuple outer;
    Timestamp deadline;
    std::vector<Value> key;  // the outer's key values (not checkpointed)
  };
  using KeyRefs = std::vector<const Value*>;  // one per key pair

  /// Processes `tuple` as the outer tuple; sets `*held` when it was
  /// added to pending_.
  Status ProcessOuter(const Tuple& tuple, bool* held);
  /// Processes `tuple` as an inner tuple; the last pending entry is not
  /// checked when `skip_last_pending` (the arrival's own entry).
  Status ProcessInner(const Tuple& tuple, bool skip_last_pending);
  Status FlushPending(Timestamp now);
  /// Points probe_key_ at the key values of `outer`: into its row where
  /// the key expression is a column, else at computed_key_.
  Status EvalKey(const Tuple& outer);
  /// A copy of the values probe_key_ points at, for a pending entry.
  std::vector<Value> OwnedKey() const;
  Result<bool> Matches(const Tuple& inner, const Tuple& outer,
                       const KeyRefs& outer_key);

  WindowSpec window_;
  BoundExprPtr residual_;
  BoundExprPtr outer_predicate_;
  std::vector<Key> keys_;
  bool same_stream_;
  bool has_preceding_;
  bool has_following_;
  KeyedWindowBuffer buffer_;      // inner history for the PRECEDING side
  std::deque<Pending> pending_;   // outer tuples awaiting FOLLOWING close
  KeyRefs probe_key_;             // the key being probed, read in place
  std::vector<Value> computed_key_;  // values of computed key expressions
  uint64_t probe_comparisons_ = 0;
  RowScratch scratch_;
};

}  // namespace eslev

#endif  // ESLEV_EXEC_WINDOWED_NOT_EXISTS_H_
