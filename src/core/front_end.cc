#include "core/front_end.h"

namespace eslev {

FrontEndBase::FrontEndBase(const IngestOptions& options)
    : init_status_(ValidateIngestOptions(options)) {
  if (!init_status_.ok()) return;
  ingest_options_ = options;
  if (ingest_options_.enabled()) {
    ingest_ = std::make_unique<IngestPipeline>(ingest_options_);
  }
}

Result<WalChainReadResult> FrontEndBase::ReadWal(const std::string& path) {
  ESLEV_ASSIGN_OR_RETURN(WalChainReadResult read, ReadWalChain(path));
  if (read.live_torn_tail) ++truncated_frames_;
  return read;
}

Status FrontEndBase::OpenWal(const std::string& path, WalOptions options,
                             const WalChainReadResult& read) {
  const uint64_t last_lsn =
      std::max(read.records.empty() ? uint64_t{0} : read.records.back().lsn,
               restored_lsn_);
  options.truncate_to_bytes = read.live_valid_bytes;
  ESLEV_ASSIGN_OR_RETURN(wal_, WalWriter::Open(path, last_lsn + 1, options));
  return Status::OK();
}

Status FrontEndBase::EnableWal(const std::string& path, WalOptions options) {
  if (wal_ != nullptr) {
    return Status::Invalid("WAL already enabled at " + wal_->path());
  }
  ESLEV_ASSIGN_OR_RETURN(WalChainReadResult read, ReadWal(path));
  return OpenWal(path, std::move(options), read);
}

Result<uint64_t> FrontEndBase::FlushWal() {
  if (wal_ == nullptr) return uint64_t{0};
  ESLEV_RETURN_NOT_OK(wal_->Flush());
  return wal_->next_lsn() - 1;
}

Status FrontEndBase::TruncateWalBefore(uint64_t lsn) {
  return wal_ == nullptr ? Status::OK() : wal_->TruncateBefore(lsn);
}

void FrontEndBase::AppendMetrics(MetricsSnapshot* snap) const {
  if (ingest_ != nullptr) ingest_->AppendMetrics(snap);
  snap->counters["recovery.wal_records_replayed"] = records_replayed_;
  snap->counters["recovery_truncated_frames"] = truncated_frames_;
  if (wal_ == nullptr) return;
  snap->counters["wal.records_appended"] = wal_->records_appended();
  snap->counters["wal.group_commits"] = wal_->group_commits();
  snap->counters["wal.bytes_written"] = wal_->bytes_written();
  snap->counters["wal.segments_sealed"] = wal_->segments_sealed();
  snap->counters["wal.segments_deleted"] = wal_->segments_deleted();
  snap->gauges["wal.sealed_segments"] =
      static_cast<int64_t>(wal_->sealed_segments().size());
  snap->gauges["wal.live_bytes"] = static_cast<int64_t>(wal_->live_bytes());
}

}  // namespace eslev
