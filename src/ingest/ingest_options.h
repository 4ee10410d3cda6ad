// Ingest subsystem options (DESIGN.md §15): the bounded reorder stage
// and the RFID cleaning stage that sit between stream sources and the
// engine's pipelines. They are set through EngineOptions::ingest;
// invalid values surface as an error from the first engine API call
// instead of being ignored.

#ifndef ESLEV_INGEST_INGEST_OPTIONS_H_
#define ESLEV_INGEST_INGEST_OPTIONS_H_

#include <cstdint>

#include "common/result.h"
#include "common/time.h"

namespace eslev {

struct IngestOptions {
  /// Reorder stage (CEDR-style bounded disorder): events are buffered
  /// until the maximum observed event time has passed them by this much,
  /// then released in timestamp order. An event arriving displaced by
  /// exactly the bound is still accepted; anything later is counted as a
  /// late drop (`ingest.reorder.late_dropped`) and dropped.
  /// 0 disables the stage — input must already be in order.
  Duration lateness_bound = 0;

  /// Cleaning stage (Cao et al.-style smoothing): reads with identical
  /// non-timestamp values arriving within [anchor, anchor + window] are
  /// one smoothing group. 0 disables the stage.
  Duration smoothing_window = 0;

  /// Minimum copies a smoothing group needs to be believed. Groups with
  /// fewer reads are dropped as spurious; groups with at least this many
  /// emit their anchor read once (duplicates suppressed). 1 = pure
  /// duplicate suppression, no spurious filtering.
  int64_t min_read_count = 1;

  /// Missed-read interpolation: when consecutive emitted reads of one
  /// tag are separated by a gap no larger than this horizon (but larger
  /// than the read period), the gap is filled with synthesized reads
  /// carrying a provenance bit (Tuple::synthesized). 0 disables
  /// interpolation.
  Duration interpolation_horizon = 0;

  /// Spacing of synthesized reads. 0 = adaptive: a per-tag exponential
  /// moving average of observed inter-read gaps.
  Duration interpolation_period = 0;

  /// Declared upper bound on input disorder, for static analysis only
  /// (the disorder-hazard lint rule): a session that declares nonzero
  /// disorder but runs SEQ queries without a covering lateness bound gets
  /// a warning. Does not affect execution.
  Duration declared_disorder = 0;

  /// \brief True when any ingest stage is active.
  bool enabled() const { return lateness_bound > 0 || smoothing_window > 0; }
};

/// \brief Validate every field; range errors and inconsistent
/// combinations come back as Invalid.
Status ValidateIngestOptions(const IngestOptions& options);

/// \brief Upper bound for every duration knob: 24 hours in microseconds.
/// Far beyond any sane buffering bound, but finite so arithmetic on
/// `frontier - bound` can never overflow.
inline constexpr int64_t kMaxIngestDurationUs =
    int64_t{24} * 60 * 60 * 1000 * 1000;

/// \brief Upper bound for min_read_count.
inline constexpr int64_t kMaxIngestMinCount = 1 << 20;

}  // namespace eslev

#endif  // ESLEV_INGEST_INGEST_OPTIONS_H_
