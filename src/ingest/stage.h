// IngestStage: shared base of the ingest operators (DESIGN.md §15).
//
// Ingest stages are Operators — they reuse the dispatch-boundary counters
// and the SaveState/RestoreState contract — but they are not wired through
// the sink mechanism: a stage handles tuples from *many* source streams,
// one input port per stream, and must preserve each tuple's port on the
// way out (Operator::Emit fans out to fixed sink ports). Stages therefore
// chain through a single `next` stage and forward with the port
// attached. The chain terminates in an IngestDelivery adapter
// (ingest_pipeline.h) that hands ordered, cleaned tuples to the engine.
//
// A read is copied once, where it enters the chain (OnTuple). From there
// each stage takes it by value (Take) and buffers or forwards that same
// object by move, so a read crosses reordering, cleaning and delivery
// without another copy.

#ifndef ESLEV_INGEST_STAGE_H_
#define ESLEV_INGEST_STAGE_H_

#include <utility>

#include "stream/operator.h"

namespace eslev {

class IngestStage : public Operator {
 public:
  /// \brief Connect the downstream stage (or delivery adapter). Not
  /// owned; the pipeline owns all stages.
  void set_next(IngestStage* next) { next_ = next; }

  /// \brief Hand this stage a read it may keep. Counts like OnTuple.
  Status Take(size_t port, Tuple tuple) {
    CountTupleIn();
    return TakeTuple(port, std::move(tuple));
  }

 protected:
  /// \brief Subclass hook: process a read this stage now owns.
  virtual Status TakeTuple(size_t port, Tuple tuple) = 0;

  /// The by-reference entry copies the read, once, into the chain.
  Status ProcessTuple(size_t port, const Tuple& tuple) final {
    return TakeTuple(port, tuple);
  }

  Status Forward(size_t port, Tuple tuple) {
    return next_ == nullptr ? Status::OK() : next_->Take(port, std::move(tuple));
  }
  Status ForwardHeartbeat(Timestamp now) {
    return next_ == nullptr ? Status::OK() : next_->OnHeartbeat(now);
  }

 private:
  IngestStage* next_ = nullptr;
};

}  // namespace eslev

#endif  // ESLEV_INGEST_STAGE_H_
