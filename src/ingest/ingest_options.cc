#include "ingest/ingest_options.h"

#include <string>

namespace eslev {

namespace {

Status CheckDuration(const char* name, Duration value) {
  if (value < 0 || value > kMaxIngestDurationUs) {
    return Status::Invalid(std::string(name) + "=" + std::to_string(value) +
                           " is out of range; accepted range is [0, " +
                           std::to_string(kMaxIngestDurationUs) + "] µs");
  }
  return Status::OK();
}

}  // namespace

Status ValidateIngestOptions(const IngestOptions& options) {
  ESLEV_RETURN_NOT_OK(
      CheckDuration("ingest.lateness_bound", options.lateness_bound));
  ESLEV_RETURN_NOT_OK(
      CheckDuration("ingest.smoothing_window", options.smoothing_window));
  ESLEV_RETURN_NOT_OK(CheckDuration("ingest.interpolation_horizon",
                                    options.interpolation_horizon));
  ESLEV_RETURN_NOT_OK(CheckDuration("ingest.interpolation_period",
                                    options.interpolation_period));
  ESLEV_RETURN_NOT_OK(
      CheckDuration("ingest.declared_disorder", options.declared_disorder));
  if (options.min_read_count < 1 ||
      options.min_read_count > kMaxIngestMinCount) {
    return Status::Invalid(
        "ingest.min_read_count=" + std::to_string(options.min_read_count) +
        " is out of range; accepted range is [1, " +
        std::to_string(kMaxIngestMinCount) + "]");
  }
  if (options.interpolation_horizon > 0 && options.smoothing_window == 0) {
    return Status::Invalid(
        "ingest.interpolation_horizon requires a nonzero smoothing_window "
        "(interpolation is part of the cleaning stage)");
  }
  return Status::OK();
}

}  // namespace eslev
