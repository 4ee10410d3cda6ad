// The one adapter between E19 and engine APIs the ROADMAP plans to cut
// or rename: the ServeHost adapters (EngineHost / ShardedHost) and the
// key names of Metrics() snapshots. When those change, only this file
// and host.cc follow.

#ifndef ESLEV_E19_HARNESS_HOST_H_
#define ESLEV_E19_HARNESS_HOST_H_

#include <memory>
#include <set>
#include <string>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "e19/harness/trace.h"
#include "serve/serve_host.h"

namespace e19 {

std::unique_ptr<eslev::ServeHost> ServeOverEngine(eslev::Engine* engine);
std::unique_ptr<eslev::ServeHost> ServeOverSharded(eslev::ShardedEngine* engine);

/// \brief Forwarding ServeHost that times every call QueryServer makes
/// into the host, splitting serve time from core time without touching
/// src/. It also wraps the callbacks QueryServer subscribes, so
/// dispatcher fan-out gets its own span.
class TimedHost : public eslev::ServeHost {
 public:
  TimedHost(eslev::ServeHost* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  eslev::Status ExecuteScript(const std::string& sql) override;
  eslev::Result<eslev::QueryInfo> RegisterQuery(const std::string& sql) override;
  eslev::Status UnregisterQuery(int id) override;
  eslev::Status SetNextQueryId(int id) override;
  eslev::Status Subscribe(const std::string& stream,
                          eslev::TupleCallback callback) override;
  eslev::Result<std::string> Explain(const std::string& sql) override;
  eslev::Status Push(const std::string& stream,
                     std::vector<eslev::Value> values,
                     eslev::Timestamp ts) override;
  eslev::Status PushTuple(const std::string& stream,
                          const eslev::Tuple& tuple) override;
  eslev::Status AdvanceTime(eslev::Timestamp now) override;
  eslev::Status Flush() override;
  size_t DrainEmissions() override;
  eslev::Status Checkpoint(const std::string& dir) override;
  eslev::Status EnableWal(const std::string& path,
                          eslev::WalOptions options) override;
  eslev::Status RecoverFrom(const std::string& dir,
                            const eslev::ReplayOptions& options) override;
  eslev::Result<eslev::MetricsSnapshot> Metrics() override;
  bool sharded() const override { return inner_->sharded(); }

 private:
  eslev::ServeHost* inner_;
  Tracer* tracer_;
};

/// \brief Per-layer counts read out of a Metrics() snapshot, summed over
/// shards and queries. `found` names each group whose keys were present,
/// so a renamed key shows up as a missing metric instead of a zero.
struct LayerCounts {
  // exec: the Example 1 anti-join (WindowedNotExists).
  int64_t notexists_in = 0;
  int64_t notexists_out = 0;
  int64_t window_buffer = 0;
  // cep: SEQ operators and EXCEPTION_SEQ.
  int64_t seq_in = 0;
  int64_t seq_matches = 0;
  int64_t seq_retained = 0;
  int64_t seq_purged = 0;
  int64_t exseq_alerts = 0;
  // ingest (front end of the sharded host, or the engine's own).
  int64_t ingest_released = 0;
  int64_t ingest_late_dropped = 0;
  int64_t ingest_depth = 0;
  int64_t ingest_pending = 0;
  int64_t ingest_dups = 0;
  int64_t ingest_spurious = 0;
  int64_t ingest_emitted = 0;
  // sharded runtime.
  int64_t queue_depth_max = 0;
  int64_t queue_depth_sum = 0;
  // serve: tenant outboxes.
  int64_t outbox_pending_max = 0;
  int64_t outbox_pending_sum = 0;
  int64_t outbox_dropped = 0;

  std::set<std::string> found;  // "exec.notexists", "cep.seq", ...
};

LayerCounts ReadLayerCounts(const eslev::MetricsSnapshot& snap);

}  // namespace e19

#endif  // ESLEV_E19_HARNESS_HOST_H_
