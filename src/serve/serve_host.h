// ServeHost (DESIGN.md §17): the execution substrate under the
// multi-tenant serving layer. QueryServer speaks this narrow interface
// so one serving implementation runs over both the single-threaded
// Engine (emissions dispatched synchronously during Push) and the
// ShardedEngine (emissions buffered in per-shard outboxes and pumped
// by DrainEmissions).
//
// Adapters are non-owning: the caller constructs and owns the engine;
// the host only forwards. ShardedEngine quiesces all shards (Flush)
// before any topology change, so a runtime registration lands at the
// same stream position on every shard — the property the multi-tenant
// differential proof relies on.

#ifndef ESLEV_SERVE_SERVE_HOST_H_
#define ESLEV_SERVE_SERVE_HOST_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/sharded_engine.h"

namespace eslev {

class ServeHost {
 public:
  virtual ~ServeHost() = default;

  // Control plane (single-threaded; never concurrent with data pushes).
  virtual Status ExecuteScript(const std::string& sql) = 0;
  virtual Result<QueryInfo> RegisterQuery(const std::string& sql) = 0;
  virtual Status UnregisterQuery(int id) = 0;
  virtual Status SetNextQueryId(int id) = 0;
  virtual Status Subscribe(const std::string& stream,
                           TupleCallback callback) = 0;
  virtual Result<std::string> Explain(const std::string& sql) = 0;

  // Data plane.
  virtual Status Push(const std::string& stream, std::vector<Value> values,
                      Timestamp ts) = 0;
  virtual Status PushTuple(const std::string& stream, const Tuple& tuple) = 0;
  virtual Status AdvanceTime(Timestamp now) = 0;
  /// \brief Settle all in-flight work (route batches / shard queues).
  virtual Status Flush() = 0;
  /// \brief Deliver buffered emissions to subscription callbacks on the
  /// calling thread; returns the count. Engines that dispatch
  /// synchronously return 0 — their callbacks already ran during Push.
  virtual size_t DrainEmissions() = 0;

  // Durability.
  virtual Status Checkpoint(const std::string& dir) = 0;
  virtual Status EnableWal(const std::string& path, WalOptions options) = 0;
  virtual Status RecoverFrom(const std::string& dir,
                             const ReplayOptions& options) = 0;

  virtual Result<MetricsSnapshot> Metrics() = 0;
  virtual bool sharded() const = 0;
};

/// \brief Serving over a caller-owned single-threaded Engine.
class EngineHost : public ServeHost {
 public:
  explicit EngineHost(Engine* engine) : engine_(engine) {}

  Status ExecuteScript(const std::string& sql) override {
    return engine_->ExecuteScript(sql);
  }
  Result<QueryInfo> RegisterQuery(const std::string& sql) override {
    return engine_->RegisterQuery(sql);
  }
  Status UnregisterQuery(int id) override {
    return engine_->UnregisterQuery(id);
  }
  Status SetNextQueryId(int id) override {
    return engine_->SetNextQueryId(id);
  }
  Status Subscribe(const std::string& stream,
                   TupleCallback callback) override {
    return engine_->Subscribe(stream, std::move(callback));
  }
  Result<std::string> Explain(const std::string& sql) override {
    return engine_->Explain(sql);
  }
  Status Push(const std::string& stream, std::vector<Value> values,
              Timestamp ts) override {
    return engine_->Push(stream, std::move(values), ts);
  }
  Status PushTuple(const std::string& stream, const Tuple& tuple) override {
    return engine_->PushTuple(stream, tuple);
  }
  Status AdvanceTime(Timestamp now) override {
    return engine_->AdvanceTime(now);
  }
  Status Flush() override { return Status::OK(); }
  size_t DrainEmissions() override { return 0; }
  Status Checkpoint(const std::string& dir) override {
    return engine_->Checkpoint(dir);
  }
  Status EnableWal(const std::string& path, WalOptions options) override {
    return engine_->EnableWal(path, options);
  }
  Status RecoverFrom(const std::string& dir,
                     const ReplayOptions& options) override {
    return engine_->RecoverFrom(dir, options);
  }
  Result<MetricsSnapshot> Metrics() override { return engine_->Metrics(); }
  bool sharded() const override { return false; }

 private:
  Engine* engine_;
};

/// \brief Serving over a caller-owned ShardedEngine, which quiesces its
/// shards itself before every topology change.
class ShardedHost : public ServeHost {
 public:
  explicit ShardedHost(ShardedEngine* engine) : engine_(engine) {}

  Status ExecuteScript(const std::string& sql) override {
    return engine_->ExecuteScript(sql);
  }
  Result<QueryInfo> RegisterQuery(const std::string& sql) override {
    return engine_->RegisterQuery(sql);
  }
  Status UnregisterQuery(int id) override {
    return engine_->UnregisterQuery(id);
  }
  Status SetNextQueryId(int id) override {
    return engine_->SetNextQueryId(id);
  }
  Status Subscribe(const std::string& stream,
                   TupleCallback callback) override {
    return engine_->Subscribe(stream, std::move(callback));
  }
  Result<std::string> Explain(const std::string& sql) override {
    return engine_->Explain(sql);
  }
  Status Push(const std::string& stream, std::vector<Value> values,
              Timestamp ts) override {
    return engine_->Push(stream, std::move(values), ts);
  }
  Status PushTuple(const std::string& stream, const Tuple& tuple) override {
    return engine_->PushTuple(stream, tuple);
  }
  Status AdvanceTime(Timestamp now) override {
    return engine_->AdvanceTime(now);
  }
  Status Flush() override { return engine_->Flush(); }
  size_t DrainEmissions() override { return engine_->DrainOutputs(); }
  Status Checkpoint(const std::string& dir) override {
    return engine_->Checkpoint(dir);
  }
  Status EnableWal(const std::string& path, WalOptions options) override {
    return engine_->EnableWal(path, options);
  }
  Status RecoverFrom(const std::string& dir,
                     const ReplayOptions& options) override {
    return engine_->RecoverFrom(dir, options);
  }
  Result<MetricsSnapshot> Metrics() override { return engine_->Metrics(); }
  bool sharded() const override { return true; }

 private:
  ShardedEngine* engine_;
};

}  // namespace eslev

#endif  // ESLEV_SERVE_SERVE_HOST_H_
