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
// as the outer tuple first (so a tuple never anti-joins against itself),
// then added to the inner window buffer.
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

#include "expr/bound_expr.h"
#include "sql/ast.h"
#include "stream/operator.h"
#include "stream/window_buffer.h"

namespace eslev {

class WindowedNotExistsOperator : public Operator {
 public:
  /// `outer_predicate` (optional, slot 1 only) gates which arrivals play
  /// the outer role; in same-stream mode it cannot be applied upstream
  /// because the inner side must still observe every tuple.
  WindowedNotExistsOperator(WindowSpec window, BoundExprPtr inner_predicate,
                            bool same_stream,
                            BoundExprPtr outer_predicate = nullptr);

  Status ProcessTuple(size_t port, const Tuple& tuple) override;
  Status ProcessHeartbeat(Timestamp now) override;

  /// \brief The window this anti-join runs (cost model, DESIGN.md §16).
  const WindowSpec& window() const { return window_; }
  bool same_stream() const { return same_stream_; }

  /// \brief Number of outer tuples currently held for their FOLLOWING
  /// window to close (observability for tests/benches).
  size_t pending_count() const { return pending_.size(); }
  size_t buffered_count() const { return buffer_.size(); }
  /// \brief Inner tuples compared against an outer tuple's NOT EXISTS
  /// probe (PRECEDING-side scans plus FOLLOWING-side pending checks).
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
  };

  Status ProcessOuter(const Tuple& tuple);
  Status ProcessInner(const Tuple& tuple);
  Status FlushPending(Timestamp now);
  Result<bool> Matches(const Tuple& inner, const Tuple& outer);

  WindowSpec window_;
  BoundExprPtr inner_predicate_;
  BoundExprPtr outer_predicate_;
  bool same_stream_;
  bool has_preceding_;
  bool has_following_;
  WindowBuffer buffer_;           // inner history for the PRECEDING side
  std::deque<Pending> pending_;   // outer tuples awaiting FOLLOWING close
  uint64_t probe_comparisons_ = 0;
  RowScratch scratch_;
};

}  // namespace eslev

#endif  // ESLEV_EXEC_WINDOWED_NOT_EXISTS_H_
