// The trace and ingest options of E19 `sharded_fullpath` at a tenth of
// its size, shared by the work counts under tests/perf that replay that
// workload's shape: every read duplicated, 25 % ghost reads, arrival
// displaced by up to 400 ms; ingest reorders within 400 ms and cleans
// with a 1 ms window and `min_read_count` 2.

#ifndef ESLEV_TESTS_PERF_FULLPATH_TRACE_H_
#define ESLEV_TESTS_PERF_FULLPATH_TRACE_H_

#include "common/time.h"
#include "ingest/ingest_options.h"
#include "rfid/workloads.h"

namespace eslev {

inline rfid::Workload FullpathTrace() {
  rfid::DuplicateWorkloadOptions o;
  o.num_distinct = 3000;
  o.duplicates_per_read = 0;  // the noise owns duplication
  o.inter_arrival = Milliseconds(100);
  o.num_readers = 4;
  o.num_tags = 100;
  o.seed = 1;
  rfid::Workload trace = rfid::MakeDuplicateWorkload(o);
  rfid::NormalizeUniqueTimestamps(&trace);
  rfid::NoiseOptions noise;
  noise.max_shift = Milliseconds(400);
  noise.duplicate_rate = 1.0;  // every real read reaches min_read_count
  noise.duplicate_copies = 1;
  noise.spurious_rate = 0.25;
  noise.seed = 2;
  rfid::InjectNoise(&trace, noise);
  return trace;
}

inline IngestOptions FullpathIngest() {
  IngestOptions options;
  options.lateness_bound = Milliseconds(400);
  options.smoothing_window = Milliseconds(1);
  options.min_read_count = 2;
  return options;
}

/// Example 1's dedup over `readings` into `cleaned_readings`.
inline constexpr char kFullpathDedupScript[] = R"sql(
  CREATE STREAM readings(reader_id, tag_id, read_time);
  CREATE STREAM cleaned_readings(reader_id, tag_id, read_time);
  INSERT INTO cleaned_readings
  SELECT * FROM readings AS r1
  WHERE NOT EXISTS
    (SELECT * FROM TABLE( readings OVER
        (RANGE 1 seconds PRECEDING CURRENT)) AS r2
     WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);
)sql";

}  // namespace eslev

#endif  // ESLEV_TESTS_PERF_FULLPATH_TRACE_H_
