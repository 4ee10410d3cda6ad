#include "e19/harness/host.h"

#include <algorithm>
#include <vector>

namespace e19 {

using eslev::Result;
using eslev::Status;

std::unique_ptr<eslev::ServeHost> ServeOverEngine(eslev::Engine* engine) {
  return std::make_unique<eslev::EngineHost>(engine);
}

std::unique_ptr<eslev::ServeHost> ServeOverSharded(
    eslev::ShardedEngine* engine) {
  return std::make_unique<eslev::ShardedHost>(engine);
}

Status TimedHost::ExecuteScript(const std::string& sql) {
  ScopedSpan span(tracer_, Boundary::kPlanRegister);
  return inner_->ExecuteScript(sql);
}

Result<eslev::QueryInfo> TimedHost::RegisterQuery(const std::string& sql) {
  ScopedSpan span(tracer_, Boundary::kPlanRegister);
  return inner_->RegisterQuery(sql);
}

Status TimedHost::UnregisterQuery(int id) {
  return inner_->UnregisterQuery(id);
}

Status TimedHost::SetNextQueryId(int id) { return inner_->SetNextQueryId(id); }

Status TimedHost::Subscribe(const std::string& stream,
                            eslev::TupleCallback callback) {
  Tracer* tracer = tracer_;
  return inner_->Subscribe(
      stream, [tracer, callback = std::move(callback)](const eslev::Tuple& t) {
        ScopedSpan span(tracer, Boundary::kServeDispatch);
        callback(t);
      });
}

Result<std::string> TimedHost::Explain(const std::string& sql) {
  return inner_->Explain(sql);
}

Status TimedHost::Push(const std::string& stream,
                       std::vector<eslev::Value> values, eslev::Timestamp ts) {
  ScopedSpan span(tracer_, Boundary::kCorePush);
  return inner_->Push(stream, std::move(values), ts);
}

Status TimedHost::PushTuple(const std::string& stream,
                            const eslev::Tuple& tuple) {
  ScopedSpan span(tracer_, Boundary::kCorePush);
  return inner_->PushTuple(stream, tuple);
}

Status TimedHost::AdvanceTime(eslev::Timestamp now) {
  ScopedSpan span(tracer_, Boundary::kCoreHeartbeat);
  return inner_->AdvanceTime(now);
}

Status TimedHost::Flush() {
  ScopedSpan span(tracer_, Boundary::kCoreFlush);
  return inner_->Flush();
}

size_t TimedHost::DrainEmissions() {
  ScopedSpan span(tracer_, Boundary::kCoreDrain);
  return inner_->DrainEmissions();
}

Status TimedHost::Checkpoint(const std::string& dir) {
  return inner_->Checkpoint(dir);
}

Status TimedHost::EnableWal(const std::string& path,
                            eslev::WalOptions options) {
  return inner_->EnableWal(path, std::move(options));
}

Status TimedHost::RecoverFrom(const std::string& dir,
                              const eslev::ReplayOptions& options) {
  return inner_->RecoverFrom(dir, options);
}

Result<eslev::MetricsSnapshot> TimedHost::Metrics() {
  return inner_->Metrics();
}

namespace {

std::vector<std::string> SplitDots(const std::string& key) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t dot = key.find('.', start);
    parts.push_back(key.substr(start, dot - start));
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return parts;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

// Key shapes (DESIGN.md §9, §15, §17), with an optional "shard<i>." or
// "sharded." prefix on sharded hosts:
//   query<id>.op<k>.<Label>.<stat>     operator counters and gauges
//   ingest.reorder.* / ingest.clean.*  ingest stages
//   sharded.shard<i>.queue_depth       shard mailboxes
//   tenant.<id>.pending / .dropped     serving outboxes
LayerCounts ReadLayerCounts(const eslev::MetricsSnapshot& snap) {
  LayerCounts c;
  auto visit = [&c](const std::string& key, int64_t v) {
    const std::vector<std::string> parts = SplitDots(key);
    const size_t n = parts.size();
    if (n >= 2 && parts[n - 2] == "WindowedNotExists") {
      const std::string& stat = parts[n - 1];
      if (stat == "tuples_in") c.notexists_in += v;
      if (stat == "tuples_out") c.notexists_out += v;
      if (stat == "window_buffer") c.window_buffer += v;
      c.found.insert("exec.notexists");
    } else if (n >= 2 && parts[n - 2] == "SeqOperator") {
      const std::string& stat = parts[n - 1];
      if (stat == "tuples_in") c.seq_in += v;
      if (stat == "matches") c.seq_matches += v;
      if (stat == "retained_history") c.seq_retained += v;
      if (stat == "tuples_purged") c.seq_purged += v;
      c.found.insert("cep.seq");
    } else if (n >= 2 && parts[n - 2] == "ExceptionSeqOperator") {
      if (parts[n - 1] == "exceptions_emitted") c.exseq_alerts += v;
      c.found.insert("cep.exseq");
    } else if (EndsWith(key, "ingest.reorder.released")) {
      c.ingest_released += v;
      c.found.insert("ingest");
    } else if (EndsWith(key, "ingest.reorder.late_dropped")) {
      c.ingest_late_dropped += v;
    } else if (EndsWith(key, "ingest.reorder.depth")) {
      c.ingest_depth += v;
    } else if (EndsWith(key, "ingest.clean.pending")) {
      c.ingest_pending += v;
    } else if (EndsWith(key, "ingest.clean.dups_suppressed")) {
      c.ingest_dups += v;
    } else if (EndsWith(key, "ingest.clean.spurious_filtered")) {
      c.ingest_spurious += v;
    } else if (EndsWith(key, "ingest.clean.emitted")) {
      c.ingest_emitted += v;
    } else if (n == 3 && parts[0] == "sharded" &&
               parts[1].rfind("shard", 0) == 0 && parts[2] == "queue_depth") {
      c.queue_depth_max = std::max(c.queue_depth_max, v);
      c.queue_depth_sum += v;
      c.found.insert("core.sharded");
    } else if (n == 3 && parts[0] == "tenant" && parts[2] == "pending") {
      c.outbox_pending_max = std::max(c.outbox_pending_max, v);
      c.outbox_pending_sum += v;
      c.found.insert("serve.outbox");
    } else if (n == 3 && parts[0] == "tenant" && parts[2] == "dropped") {
      c.outbox_dropped += v;
    }
  };
  for (const auto& [key, v] : snap.counters) {
    visit(key, static_cast<int64_t>(v));
  }
  for (const auto& [key, v] : snap.gauges) visit(key, v);
  return c;
}

}  // namespace e19
