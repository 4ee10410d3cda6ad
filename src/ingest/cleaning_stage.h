// CleaningStage: RFID read cleaning in the spirit of Cao et al.
// ("Distributed Inference and Query Processing for RFID Tracking and
// Monitoring") — duplicate-read suppression, spurious-read filtering,
// and missed-read interpolation, applied per tag *after* the reorder
// stage has restored timestamp order (DESIGN.md §15).
//
// Smoothing model: reads with the same smoothing key — the same port
// and equal values in every non-timestamp column (reader + tag for the
// paper's reading schema) — arriving within [anchor, anchor + window] of
// the group's first read form one smoothing group. Key columns compare
// by type and value: a NULL groups with NULL only, a DOUBLE NaN with any
// NaN, and values of different types never group. A group closes once
// the input frontier passes anchor + window:
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
// "adaptive" per-tag window). Only interpolation reads the per-key state
// (last emitted read, gap average), so the stage keeps it only when
// interpolation is on.
//
// The hot path allocates nothing once warm: a read is kept by move as
// its group's anchor (copies are counted and dropped), groups live in
// reused slots found through a chained hash index on the key values,
// and the open-group and hold-back orders are TimeOrderedQueues.

#ifndef ESLEV_INGEST_CLEANING_STAGE_H_
#define ESLEV_INGEST_CLEANING_STAGE_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "ingest/ingest_options.h"
#include "ingest/stage.h"
#include "ingest/time_ordered_queue.h"

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
  /// \brief Per-key interpolation states held (0 without interpolation).
  size_t key_states() const { return key_state_.size(); }

  void AppendStats(OperatorStatList* out) const override;
  Status SaveState(BinaryEncoder* enc) const override;
  Status RestoreState(BinaryDecoder* dec) override;

 protected:
  Status TakeTuple(size_t port, Tuple tuple) override;
  Status ProcessHeartbeat(Timestamp now) override;

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct Group {
    size_t port = 0;
    Tuple anchor;  // the group's first read; its key columns are the key
    uint64_t count = 0;
    size_t hash = 0;           // KeyHash(port, anchor)
    uint32_t next = kNoSlot;   // next slot in the same index bucket
  };
  struct PortTuple {
    size_t port;
    Tuple tuple;
  };
  /// Interpolation state of one (port, key): the key's values, in column
  /// order, with the port in front.
  using StateKey = std::pair<size_t, std::vector<Value>>;
  struct StateKeyLess {
    bool operator()(const StateKey& a, const StateKey& b) const;
  };
  struct KeyState {
    bool has_last = false;
    Tuple last;               // last emitted observed (non-synthesized) read
    int64_t ema_gap_us = 0;   // adaptive read-period estimate
  };

  /// Hash of `port` and the smoothing key of `tuple` (its non-timestamp
  /// columns), agreeing with SameKey.
  static size_t KeyHash(size_t port, const Tuple& tuple);
  /// The smoothing-key equality: same non-timestamp column count, and
  /// equal values column by column (DESIGN.md §15).
  static bool SameKey(const Tuple& a, const Tuple& b);
  static StateKey MakeStateKey(size_t port, const Tuple& tuple);

  bool interpolating() const { return horizon_ > 0; }

  /// Absorb one input read into its smoothing group (opens one if needed,
  /// after closing groups the frontier has passed).
  void Absorb(size_t port, Tuple tuple);
  /// Open a group anchored at `tuple`, whose KeyHash is `hash`, with
  /// `count` reads (restore passes the checkpointed count and sequence).
  void OpenGroup(size_t port, size_t hash, Tuple tuple, uint64_t count,
                 uint64_t seq);
  /// The open group of (port, key of `tuple`), or kNoSlot.
  uint32_t FindGroup(size_t hash, size_t port, const Tuple& tuple) const;
  void LinkGroup(uint32_t slot);
  void UnlinkGroup(uint32_t slot);
  /// Close every open group with anchor + window < frontier, queueing
  /// emissions (anchor reads + interpolated fills) into the hold-back
  /// buffer in timestamp order.
  void CloseGroups();
  void CloseGroup(size_t port, uint64_t count, Tuple anchor);
  /// Queue fills for the gap between the key's last emission and
  /// `anchor`, then make `anchor` the key's last emission.
  void Interpolate(size_t port, const Tuple& anchor);
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

  // Open groups: slots of `groups_` (freed slots reused through
  // `free_slots_`), closed in anchor (ts, open seq) order through `open_`
  // and found by key through `buckets_`, the heads of per-bucket chains
  // threaded through Group::next. The bucket count is a power of two
  // and at least the number of open groups.
  std::vector<Group> groups_;
  std::vector<uint32_t> free_slots_;
  TimeOrderedQueue<uint32_t> open_;
  std::vector<uint32_t> buckets_;
  // Interpolation only; empty otherwise.
  std::map<StateKey, KeyState, StateKeyLess> key_state_;
  // Hold-back buffer keyed (ts, seq).
  TimeOrderedQueue<PortTuple> pending_;
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
