// The three E19 workloads: seeded traces from src/rfid, the schedule of
// pushes, heartbeats and polls the producer runs, the reference output
// every phase is checked against, and the system under test each phase
// builds fresh through the public APIs (Engine, ShardedEngine,
// QueryServer / Session).

#ifndef ESLEV_E19_HARNESS_WORKLOADS_H_
#define ESLEV_E19_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "e19/harness/stats.h"
#include "e19/harness/trace.h"
#include "ingest/ingest_options.h"
#include "rfid/workloads.h"

namespace e19 {

/// \brief One producer step. Heartbeats and polls run right after the
/// push of `input`, at that input's due time.
struct Step {
  enum class Kind : uint8_t { kPush, kHeartbeat, kPoll };
  Kind kind = Kind::kPush;
  uint32_t input = 0;
  eslev::Timestamp ts = 0;  // heartbeat time
};

/// \brief One query whose emissions reach the consumer.
struct QuerySpec {
  std::string key;  // "tenant/query", or the subscribed stream
  /// EXCEPTION_SEQ over three positions projecting each position's time:
  /// a timeout is charged from the first trigger past anchor + window.
  bool exception_seq = false;
  eslev::Duration window = 0;
};

struct Registration {
  std::string tenant;
  std::string name;
  std::string sql;
};

/// \brief How the host under a serving workload is built.
struct ServeSetup {
  size_t shards = 0;  // 0: one Engine behind EngineHost
  eslev::IngestOptions ingest;
  bool wal = false;
  std::vector<std::string> operator_statements;  // DDL and INSERT ... SELECT
  std::vector<std::string> tenants;
  std::vector<Registration> registrations;
};

struct Workload {
  std::string name;
  double rate = 0;  // open-loop input events per second
  std::vector<eslev::rfid::TimedReading> inputs;
  std::vector<Step> schedule;
  eslev::Timestamp final_time = 0;  // final heartbeat, after every input
  std::vector<QuerySpec> queries;
  Digests expected;  // reference emissions per query
  CompletionIndex completion;
  uint64_t fingerprint = 0;
  /// Metrics() groups (LayerCounts::found) this workload must expose.
  std::vector<std::string> layer_groups;

  // Exactly one of the two host shapes is used.
  std::vector<std::string> engine_statements;  // dedup_dense: plain Engine
  std::string engine_output;                   // stream the consumer reads
  bool serve = false;
  ServeSetup serve_setup;

  /// Problems found while building the reference (generator ground
  /// truth disagreeing with the reference emissions).
  std::vector<std::string> reference_problems;
};

/// \brief Generate `name`'s traces from `seed` and derive its schedule
/// and reference output. Errors only for an unknown name.
eslev::Result<Workload> MakeWorkload(const std::string& name, uint32_t seed);

/// \brief Schedule position of the input that completed `tuple`, an
/// emission of `query`. An EXCEPTION_SEQ alert with its first position
/// set and its last unset is a timeout, charged from the first trigger
/// past anchor + window; every other emission carries the timestamp of
/// the input that completed it.
std::optional<uint32_t> CompletingInput(const QuerySpec& query,
                                        const CompletionIndex& completion,
                                        const eslev::Tuple& tuple);

/// \brief Receives every emission: keeps per-query digests and, in the
/// open loop, the latency from the completing input's due time.
class Consumer {
 public:
  Consumer(const std::vector<QuerySpec>& queries,
           const CompletionIndex* completion);

  int SlotOf(const std::string& key) const;
  void Deliver(int slot, const eslev::Tuple& tuple);

  /// \brief Charge latency from due times t0_ns + input * period_ns.
  void StartLatency(int64_t t0_ns, double period_ns,
                    std::vector<int64_t>* samples);
  void StopLatency() { samples_ = nullptr; }

  Digests digests() const;
  uint64_t unmapped() const { return unmapped_; }

 private:
  struct Slot {
    QuerySpec spec;
    Digest digest;
  };
  std::vector<Slot> slots_;
  std::map<std::string, int> index_;
  Digest unknown_;
  const CompletionIndex* completion_;
  std::vector<int64_t>* samples_ = nullptr;
  int64_t t0_ns_ = 0;
  double period_ns_ = 0;
  uint64_t unmapped_ = 0;
};

/// \brief The system under test: a host plus, for serving workloads,
/// the QueryServer and one Session per tenant.
class System {
 public:
  virtual ~System() = default;
  virtual eslev::Status Push(const eslev::rfid::TimedReading& e) = 0;
  virtual eslev::Status Heartbeat(eslev::Timestamp now) = 0;
  /// \brief Poll the server and drain every tenant's session.
  virtual eslev::Status Poll() = 0;
  /// \brief Final heartbeat, flush and drains: afterwards every
  /// emission has reached the consumer.
  virtual eslev::Status Finish(eslev::Timestamp end) = 0;
  virtual eslev::Result<eslev::MetricsSnapshot> Metrics() = 0;

  // Introspection for the traced run.
  virtual std::vector<uint64_t> ShardCounts() const { return {}; }
  virtual size_t Pipelines() const { return 0; }
  virtual std::string WalPath() const { return ""; }
  /// \brief QueryServer::Checkpoint into `dir`.
  virtual eslev::Status Checkpoint(const std::string& dir);
};

struct SystemOptions {
  Tracer* tracer = nullptr;  // traced run: spans around every layer call
  std::string workdir;       // WAL and checkpoint files go here
  int instance = 0;          // keeps WAL paths of successive hosts apart
  bool single_engine = false;  // serve over one Engine even if sharded
};

eslev::Result<std::unique_ptr<System>> BuildSystem(
    const Workload& workload, Consumer* consumer,
    const SystemOptions& options);

}  // namespace e19

#endif  // ESLEV_E19_HARNESS_WORKLOADS_H_
