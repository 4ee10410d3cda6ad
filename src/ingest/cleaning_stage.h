// CleaningStage: RFID read cleaning in the spirit of Cao et al.
// ("Distributed Inference and Query Processing for RFID Tracking and
// Monitoring") — duplicate-read suppression, spurious-read filtering,
// and missed-read interpolation, applied per tag *after* the reorder
// stage has restored timestamp order (DESIGN.md §15).
//
// Smoothing model: reads with identical non-timestamp column values (the
// smoothing key — reader + tag for the paper's reading schema) arriving
// within [anchor, anchor + window] of the group's first read form one
// smoothing group. A group closes once the input frontier passes
// anchor + window:
//   - count >= min_read_count: the anchor read is emitted once;
//     the remaining copies are counted as suppressed duplicates.
//   - count <  min_read_count: the whole group is dropped as spurious.
// Groups close in anchor order, so the cleaned output stays in timestamp
// order across all keys.
//
// Missed-read interpolation: when two consecutive emitted reads of one
// key are separated by a gap in (period, interpolation_horizon], the gap
// is filled with synthesized copies of the earlier read at `period`
// spacing — timestamps (and timestamp-typed columns) shifted, provenance
// bit set (Tuple::synthesized). Because a synthesized read is created
// only when the *later* group closes, all emissions pass through a
// hold-back buffer released at frontier - window - horizon, which keeps
// the output sorted. The period is the configured one, or, when 0, a
// per-key exponential moving average of observed inter-read gaps (the
// "adaptive" per-tag window).

#ifndef ESLEV_INGEST_CLEANING_STAGE_H_
#define ESLEV_INGEST_CLEANING_STAGE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "ingest/ingest_options.h"
#include "ingest/stage.h"

namespace eslev {

class CleaningStage : public IngestStage {
 public:
  explicit CleaningStage(const IngestOptions& options)
      : window_(options.smoothing_window),
        min_count_(options.min_read_count),
        horizon_(options.interpolation_horizon),
        period_(options.interpolation_period) {}

  uint64_t dups_suppressed() const { return dups_suppressed_; }
  uint64_t spurious_filtered() const { return spurious_filtered_; }
  uint64_t interpolated() const { return interpolated_; }
  uint64_t emitted() const { return emitted_; }
  size_t open_groups() const { return open_.size(); }
  size_t pending() const { return pending_.size(); }

  void AppendStats(OperatorStatList* out) const override;
  Status SaveState(BinaryEncoder* enc) const override;
  Status RestoreState(BinaryDecoder* dec) override;

 protected:
  Status ProcessTuple(size_t port, const Tuple& tuple) override;
  Status ProcessHeartbeat(Timestamp now) override;

 private:
  using PortKey = std::pair<size_t, std::string>;
  struct Group {
    size_t port;
    std::string key;
    Tuple anchor;
    uint64_t count = 0;
  };
  struct KeyState {
    bool has_last = false;
    Tuple last;               // last emitted observed (non-synthesized) read
    int64_t ema_gap_us = 0;   // adaptive read-period estimate
  };

  /// Smoothing key: every non-timestamp-typed column value, concatenated.
  static std::string SmoothingKey(const Tuple& tuple);

  /// Absorb one input read into its smoothing group (opens one if needed,
  /// after closing groups the frontier has passed).
  Status Absorb(size_t port, const Tuple& tuple);
  /// Close every open group with anchor + window < frontier, queueing
  /// emissions (anchor reads + interpolated fills) into the hold-back
  /// buffer in timestamp order.
  Status CloseGroups();
  Status CloseGroup(Group group);
  /// Queue one emission into the hold-back buffer.
  void QueueEmission(size_t port, Tuple tuple);
  /// Release held-back emissions at or below frontier - window - horizon.
  Status ReleasePending();
  Timestamp ReleaseThreshold() const {
    if (frontier_ == kMinTimestamp) return kMinTimestamp;
    return frontier_ - window_ - horizon_;
  }

  Duration window_;
  int64_t min_count_;
  Duration horizon_;
  Duration period_;

  // Open groups in anchor order; the index finds a key's open group.
  std::map<std::pair<Timestamp, uint64_t>, Group> open_;
  std::map<PortKey, std::pair<Timestamp, uint64_t>> open_index_;
  std::map<PortKey, KeyState> key_state_;
  // Hold-back buffer: (ts, seq) -> (port, emission).
  std::map<std::pair<Timestamp, uint64_t>, std::pair<size_t, Tuple>> pending_;
  uint64_t open_seq_ = 0;
  uint64_t pending_seq_ = 0;
  Timestamp frontier_ = kMinTimestamp;  // max input ts / heartbeat seen
  Timestamp hb_out_ = kMinTimestamp;
  uint64_t dups_suppressed_ = 0;
  uint64_t spurious_filtered_ = 0;
  uint64_t interpolated_ = 0;
  uint64_t emitted_ = 0;
};

}  // namespace eslev

#endif  // ESLEV_INGEST_CLEANING_STAGE_H_
