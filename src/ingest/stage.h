// IngestStage: shared base of the ingest operators (DESIGN.md §15).
//
// Ingest stages are Operators — they reuse the dispatch-boundary counters
// and the SaveState/RestoreState contract — but they are not wired through
// the sink mechanism: a stage handles tuples from *many* source streams,
// one input port per stream, and must preserve each tuple's port on the
// way out (Operator::Emit fans out to fixed sink ports). Stages therefore
// chain through a single `next` operator and forward with the port
// attached. The chain terminates in an IngestDelivery adapter
// (ingest_pipeline.h) that hands ordered, cleaned tuples to the engine.

#ifndef ESLEV_INGEST_STAGE_H_
#define ESLEV_INGEST_STAGE_H_

#include "stream/operator.h"

namespace eslev {

class IngestStage : public Operator {
 public:
  /// \brief Connect the downstream stage (or delivery adapter). Not
  /// owned; the pipeline owns all stages.
  void set_next(Operator* next) { next_ = next; }

 protected:
  Status Forward(size_t port, const Tuple& tuple) {
    return next_ == nullptr ? Status::OK() : next_->OnTuple(port, tuple);
  }
  Status ForwardHeartbeat(Timestamp now) {
    return next_ == nullptr ? Status::OK() : next_->OnHeartbeat(now);
  }

 private:
  Operator* next_ = nullptr;
};

}  // namespace eslev

#endif  // ESLEV_INGEST_STAGE_H_
