// Operator: base class of the push-based execution DAG.
//
// Execution model (single-threaded, run-to-completion): the Engine pushes
// a source tuple into a Stream, which forwards it to subscribed
// operators; operators process and Emit() derived tuples to their sinks,
// which may include other operators, derived Streams, and user
// callbacks. Heartbeats (OnHeartbeat) carry time forward without tuples,
// enabling *active expiration* — the paper's requirement that
// EXCEPTION_SEQ window expirations fire without new arrivals (§3.1.3).
//
// Observability (DESIGN.md §9): the public entry points OnTuple /
// OnHeartbeat are non-virtual wrappers that count traffic into relaxed
// atomics before dispatching to the virtual ProcessTuple /
// ProcessHeartbeat hooks that subclasses implement. Counting at the
// dispatch boundary means every delivery path — Stream fan-out, Emit()
// chaining, and direct calls from tests/benches — is measured, with no
// locks on the hot path.

#ifndef ESLEV_STREAM_OPERATOR_H_
#define ESLEV_STREAM_OPERATOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "recovery/codec.h"
#include "types/tuple.h"

namespace eslev {

/// \brief (name, value) pairs reported by Operator::AppendStats — the
/// operator-specific gauges EXPLAIN ANALYZE and Engine::Metrics expose
/// beyond the universal in/out/heartbeat counters.
using OperatorStatList = std::vector<std::pair<std::string, int64_t>>;

class Operator {
 public:
  virtual ~Operator() = default;

  /// \brief Process one input tuple arriving on `port` (operators with a
  /// single input use port 0). Non-virtual: counts, then dispatches to
  /// ProcessTuple.
  Status OnTuple(size_t port, const Tuple& tuple) {
    tuples_in_.fetch_add(1, std::memory_order_relaxed);
    return ProcessTuple(port, tuple);
  }

  /// \brief Advance wall-clock/application time without a tuple.
  /// Non-virtual: counts, then dispatches to ProcessHeartbeat.
  Status OnHeartbeat(Timestamp now) {
    heartbeats_in_.fetch_add(1, std::memory_order_relaxed);
    return ProcessHeartbeat(now);
  }

  /// \brief Connect `op` as a downstream sink receiving on `port`.
  void AddSink(Operator* op, size_t port = 0) { sinks_.push_back({op, port}); }

  uint64_t tuples_in() const {
    return tuples_in_.load(std::memory_order_relaxed);
  }
  uint64_t tuples_emitted() const {
    return tuples_out_.load(std::memory_order_relaxed);
  }
  uint64_t heartbeats_in() const {
    return heartbeats_in_.load(std::memory_order_relaxed);
  }
  /// \brief Short display name used in metrics keys and EXPLAIN ANALYZE
  /// (set by the planner, e.g. "SeqOperator"). Empty when the operator
  /// was constructed outside a plan.
  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  /// \brief Append operator-specific stats (retained history, window
  /// buffer size, probe counts, ...). Base: none.
  virtual void AppendStats(OperatorStatList* out) const { (void)out; }

  /// \brief Serialize all mutable state into `enc` for a checkpoint
  /// (DESIGN.md §10). Stateless operators — the default — write nothing.
  /// The universal in/out/heartbeat counters are captured separately by
  /// the engine; implementations serialize only subclass state.
  virtual Status SaveState(BinaryEncoder* enc) const {
    (void)enc;
    return Status::OK();
  }

  /// \brief Restore state previously written by SaveState. Called on a
  /// freshly planned operator with identical configuration; must consume
  /// the decoder exactly. The stateless default expects an empty blob.
  virtual Status RestoreState(BinaryDecoder* dec) {
    if (!dec->AtEnd()) {
      return Status::IoError("checkpoint carries state for stateless operator '" +
                             label_ + "'");
    }
    return Status::OK();
  }

  /// \brief Reload the dispatch-boundary counters captured at checkpoint
  /// time, so post-restore metrics continue instead of restarting at 0.
  void RestoreCounters(uint64_t tuples_in, uint64_t tuples_out,
                       uint64_t heartbeats_in) {
    tuples_in_.store(tuples_in, std::memory_order_relaxed);
    tuples_out_.store(tuples_out, std::memory_order_relaxed);
    heartbeats_in_.store(heartbeats_in, std::memory_order_relaxed);
  }

 protected:
  /// \brief Subclass hook for tuple processing.
  virtual Status ProcessTuple(size_t port, const Tuple& tuple) = 0;

  /// \brief Subclass hook for heartbeats. Default: propagate to sinks so
  /// expirations cascade.
  virtual Status ProcessHeartbeat(Timestamp now) { return EmitHeartbeat(now); }

  /// \brief Count one input tuple for a subclass entry point that takes
  /// the tuple by value instead of through OnTuple (the ingest stages,
  /// DESIGN.md §15).
  void CountTupleIn() { tuples_in_.fetch_add(1, std::memory_order_relaxed); }

  /// \brief Forward a derived tuple to all sinks.
  Status Emit(const Tuple& tuple) {
    tuples_out_.fetch_add(1, std::memory_order_relaxed);
    for (const Sink& s : sinks_) {
      ESLEV_RETURN_NOT_OK(s.op->OnTuple(s.port, tuple));
    }
    return Status::OK();
  }

  Status EmitHeartbeat(Timestamp now) {
    for (const Sink& s : sinks_) {
      ESLEV_RETURN_NOT_OK(s.op->OnHeartbeat(now));
    }
    return Status::OK();
  }

 private:
  struct Sink {
    Operator* op;
    size_t port;
  };
  std::vector<Sink> sinks_;
  std::string label_;
  std::atomic<uint64_t> tuples_in_{0};
  std::atomic<uint64_t> tuples_out_{0};
  std::atomic<uint64_t> heartbeats_in_{0};
};

}  // namespace eslev

#endif  // ESLEV_STREAM_OPERATOR_H_
