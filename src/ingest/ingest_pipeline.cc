#include "ingest/ingest_pipeline.h"

namespace eslev {

IngestPipeline::IngestPipeline(const IngestOptions& options)
    : options_(options) {
  if (options_.lateness_bound > 0) {
    reorder_ = std::make_unique<ReorderStage>(options_.lateness_bound);
    reorder_->set_label("IngestReorder");
  }
  if (options_.smoothing_window > 0) {
    cleaning_ = std::make_unique<CleaningStage>(options_);
    cleaning_->set_label("IngestClean");
  }
  delivery_.set_label("IngestDelivery");
  // Chain: reorder -> cleaning -> delivery, skipping absent stages.
  IngestStage* tail = &delivery_;
  if (cleaning_ != nullptr) {
    cleaning_->set_next(tail);
    tail = cleaning_.get();
  }
  if (reorder_ != nullptr) {
    reorder_->set_next(tail);
    tail = reorder_.get();
  }
  head_ = tail;
}

size_t IngestPipeline::PortFor(const std::string& key) {
  auto it = port_index_.find(key);
  if (it != port_index_.end()) return it->second;
  const size_t port = port_names_.size();
  port_names_.push_back(key);
  port_index_.emplace(key, port);
  return port;
}

const std::string& IngestPipeline::port_name(size_t port) const {
  static const std::string kEmpty;
  return port < port_names_.size() ? port_names_[port] : kEmpty;
}

size_t IngestPipeline::buffered() const {
  size_t n = 0;
  if (reorder_ != nullptr) n += reorder_->depth();
  if (cleaning_ != nullptr) n += cleaning_->pending();
  return n;
}

void IngestPipeline::AppendMetrics(MetricsSnapshot* snap) const {
  snap->gauges["ingest.enabled"] = 1;
  snap->gauges["ingest.lateness_us"] = options_.lateness_bound;
  snap->gauges["ingest.smoothing_us"] = options_.smoothing_window;
  snap->gauges["ingest.ports"] = static_cast<int64_t>(port_names_.size());
  if (reorder_ != nullptr) {
    snap->gauges["ingest.reorder.depth"] =
        static_cast<int64_t>(reorder_->depth());
    snap->gauges["ingest.reorder.max_disorder_us"] =
        reorder_->max_disorder_us();
    snap->counters["ingest.reorder.late_dropped"] = reorder_->late_dropped();
    snap->counters["ingest.reorder.released"] = reorder_->released();
  }
  if (cleaning_ != nullptr) {
    snap->gauges["ingest.clean.open_groups"] =
        static_cast<int64_t>(cleaning_->open_groups());
    snap->gauges["ingest.clean.pending"] =
        static_cast<int64_t>(cleaning_->pending());
    snap->counters["ingest.clean.dups_suppressed"] =
        cleaning_->dups_suppressed();
    snap->counters["ingest.clean.spurious_filtered"] =
        cleaning_->spurious_filtered();
    snap->counters["ingest.clean.interpolated"] = cleaning_->interpolated();
    snap->counters["ingest.clean.emitted"] = cleaning_->emitted();
  }
}

std::string IngestPipeline::ExplainLine() const {
  std::string out = "Ingest:";
  if (reorder_ != nullptr) {
    out += " reorder[lateness_us=" + std::to_string(options_.lateness_bound) +
           " depth=" + std::to_string(reorder_->depth()) +
           " max_disorder_us=" + std::to_string(reorder_->max_disorder_us()) +
           " late_dropped=" + std::to_string(reorder_->late_dropped()) + "]";
  }
  if (cleaning_ != nullptr) {
    out += " clean[window_us=" + std::to_string(options_.smoothing_window) +
           " min_count=" + std::to_string(options_.min_read_count) +
           " dups_suppressed=" + std::to_string(cleaning_->dups_suppressed()) +
           " spurious_filtered=" +
           std::to_string(cleaning_->spurious_filtered()) +
           " interpolated=" + std::to_string(cleaning_->interpolated()) + "]";
  }
  return out;
}

Status IngestPipeline::SaveState(BinaryEncoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(port_names_.size()));
  for (const std::string& name : port_names_) {
    enc->PutString(name);
  }
  if (reorder_ != nullptr) {
    ESLEV_RETURN_NOT_OK(reorder_->SaveState(enc));
  }
  if (cleaning_ != nullptr) {
    ESLEV_RETURN_NOT_OK(cleaning_->SaveState(enc));
  }
  return Status::OK();
}

Status IngestPipeline::RestoreState(BinaryDecoder* dec) {
  ESLEV_ASSIGN_OR_RETURN(uint32_t n_ports, dec->GetU32());
  port_names_.clear();
  port_index_.clear();
  for (uint32_t i = 0; i < n_ports; ++i) {
    ESLEV_ASSIGN_OR_RETURN(std::string name, dec->GetString());
    port_index_.emplace(name, port_names_.size());
    port_names_.push_back(std::move(name));
  }
  if (reorder_ != nullptr) {
    ESLEV_RETURN_NOT_OK(reorder_->RestoreState(dec));
  }
  if (cleaning_ != nullptr) {
    ESLEV_RETURN_NOT_OK(cleaning_->RestoreState(dec));
  }
  return Status::OK();
}

}  // namespace eslev
