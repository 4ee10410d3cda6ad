// IngestPipeline: composition of the ingest stages (DESIGN.md §15).
//
//   sources --> [ReorderStage] --> [CleaningStage] --> IngestDelivery --> engine
//
// Each stage is optional (lateness_bound > 0 enables reordering,
// smoothing_window > 0 enables cleaning); the pipeline owns whichever are
// active plus the terminal delivery adapter, assigns one input port per
// source stream (first-offer order, checkpoint-stable), and exposes
// SaveState/RestoreState covering all buffered stage state so
// checkpoints, WAL replay, and crash recovery see the ingest buffers.

#ifndef ESLEV_INGEST_INGEST_PIPELINE_H_
#define ESLEV_INGEST_INGEST_PIPELINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "ingest/cleaning_stage.h"
#include "ingest/ingest_options.h"
#include "ingest/reorder_stage.h"

namespace eslev {

/// \brief Terminal adapter: hands ordered, cleaned tuples (and held-back
/// heartbeats) to the embedding engine through callbacks. The tuple
/// callback receives the read by value, so a host can move it on.
class IngestDelivery : public IngestStage {
 public:
  using TupleFn = std::function<Status(size_t port, Tuple tuple)>;
  using HeartbeatFn = std::function<Status(Timestamp now)>;

  void Bind(TupleFn on_tuple, HeartbeatFn on_heartbeat) {
    tuple_fn_ = std::move(on_tuple);
    heartbeat_fn_ = std::move(on_heartbeat);
  }

 protected:
  Status TakeTuple(size_t port, Tuple tuple) override {
    return tuple_fn_ ? tuple_fn_(port, std::move(tuple)) : Status::OK();
  }
  Status ProcessHeartbeat(Timestamp now) override {
    return heartbeat_fn_ ? heartbeat_fn_(now) : Status::OK();
  }

 private:
  TupleFn tuple_fn_;
  HeartbeatFn heartbeat_fn_;
};

class IngestPipeline {
 public:
  /// \brief `options` must be resolved/validated and enabled().
  explicit IngestPipeline(const IngestOptions& options);

  const IngestOptions& options() const { return options_; }

  /// \brief Input port for the stream named `key` (lower-cased catalog
  /// key), assigned on first use in offer order.
  size_t PortFor(const std::string& key);
  /// \brief Stream key owning `port` ("" when unassigned).
  const std::string& port_name(size_t port) const;
  size_t num_ports() const { return port_names_.size(); }

  /// \brief Engine-side delivery of ordered, cleaned output.
  void BindDelivery(IngestDelivery::TupleFn on_tuple,
                    IngestDelivery::HeartbeatFn on_heartbeat) {
    delivery_.Bind(std::move(on_tuple), std::move(on_heartbeat));
  }

  /// \brief Offer one read; the chain copies it once and moves that
  /// copy through to delivery.
  Status Offer(size_t port, const Tuple& tuple) {
    return head_->OnTuple(port, tuple);
  }
  Status Heartbeat(Timestamp now) { return head_->OnHeartbeat(now); }

  /// \brief Tuples currently buffered inside the ingest chain.
  size_t buffered() const;

  const ReorderStage* reorder() const { return reorder_.get(); }
  const CleaningStage* cleaning() const { return cleaning_.get(); }

  /// \brief ingest.* counters and gauges (DESIGN.md §15).
  void AppendMetrics(MetricsSnapshot* snap) const;
  /// \brief One-line live summary for EXPLAIN ANALYZE.
  std::string ExplainLine() const;

  Status SaveState(BinaryEncoder* enc) const;
  Status RestoreState(BinaryDecoder* dec);

 private:
  IngestOptions options_;
  std::unique_ptr<ReorderStage> reorder_;
  std::unique_ptr<CleaningStage> cleaning_;
  IngestDelivery delivery_;
  IngestStage* head_ = nullptr;
  std::vector<std::string> port_names_;
  std::map<std::string, size_t> port_index_;
};

}  // namespace eslev

#endif  // ESLEV_INGEST_INGEST_PIPELINE_H_
