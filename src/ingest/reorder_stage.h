// ReorderStage: bounded disorder tolerance ahead of the CEP core
// (DESIGN.md §15). CEDR-style lateness bound: an event may arrive
// displaced by at most `lateness_bound` behind the maximum event time
// seen so far. Events are buffered and re-emitted in (timestamp, arrival)
// order once the observed maximum has passed them by the bound; an event
// displaced by *exactly* the bound is still accepted, anything later is
// counted as a late drop and dropped — it can no longer be emitted
// without violating the order already released.

#ifndef ESLEV_INGEST_REORDER_STAGE_H_
#define ESLEV_INGEST_REORDER_STAGE_H_

#include <algorithm>
#include <cstdint>

#include "ingest/stage.h"
#include "ingest/time_ordered_queue.h"

namespace eslev {

class ReorderStage : public IngestStage {
 public:
  explicit ReorderStage(Duration lateness_bound) : bound_(lateness_bound) {}

  /// \brief Everything at or below this timestamp has been released;
  /// arrivals below it are late.
  Timestamp release_frontier() const { return EffectiveFrontier(); }
  Timestamp max_seen() const { return max_seen_; }
  size_t depth() const { return buffer_.size(); }
  uint64_t late_dropped() const { return late_dropped_; }
  uint64_t released() const { return released_; }
  /// \brief Largest (max_seen - arrival ts) observed, late drops included.
  int64_t max_disorder_us() const { return max_disorder_us_; }

  void AppendStats(OperatorStatList* out) const override;
  Status SaveState(BinaryEncoder* enc) const override;
  Status RestoreState(BinaryDecoder* dec) override;

 protected:
  Status TakeTuple(size_t port, Tuple tuple) override;
  Status ProcessHeartbeat(Timestamp now) override;

 private:
  struct Entry {
    size_t port;
    Tuple tuple;
  };

  /// The frontier implied by the current max_seen (monotone because
  /// max_seen is): release threshold for buffered events and the late
  /// cutoff for arrivals.
  Timestamp EffectiveFrontier() const {
    if (max_seen_ == kMinTimestamp) return frontier_;
    return std::max(frontier_, max_seen_ - bound_);
  }

  /// Release all buffered events at or below the effective frontier.
  Status Release();

  Duration bound_;
  // Keyed (ts, arrival seq): release order, ties broken by arrival.
  TimeOrderedQueue<Entry> buffer_;
  uint64_t next_seq_ = 0;
  Timestamp max_seen_ = kMinTimestamp;
  Timestamp frontier_ = kMinTimestamp;
  Timestamp hb_out_ = kMinTimestamp;
  uint64_t late_dropped_ = 0;
  uint64_t released_ = 0;
  int64_t max_disorder_us_ = 0;
};

}  // namespace eslev

#endif  // ESLEV_INGEST_REORDER_STAGE_H_
