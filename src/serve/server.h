// QueryServer (DESIGN.md §17): multi-tenant continuous-query serving
// over one ESL-EV host engine.
//
// The split of responsibilities:
//   - the *operator plane* (ExecuteScript) installs shared
//     infrastructure — stream/table DDL and INSERT ... SELECT standing
//     queries feeding derived streams every tenant may read;
//   - the *tenant plane* (OpenSession -> Session::Register) attaches
//     named bare-SELECT standing queries at runtime, each admitted
//     against the tenant's quotas using the PR 9 static state-bound
//     analyzer and each routed through the Dispatcher into that
//     tenant's outbox;
//   - the SharedPlanCache canonicalizes registrations (sql/canonical.h)
//     so identical sub-patterns across tenants compile once and fan
//     out, turning N duplicate registrations into one pipeline plus
//     N routes (experiment E18 measures the resulting speedup).
//
// Admission pricing runs on a *shadow* engine: a default single-shard
// Engine that mirrors every script and registration. The shadow never
// sees data — it exists so the server has (a) a Catalog consistent with
// the host for CostAnalyzer, and (b) a local copy of the host's query-
// id counter, which the session-registry checkpoint (session.reg) needs
// to reproduce ids exactly on recovery.
//
// Threading: control-plane calls (scripts, sessions, register,
// unregister, checkpoint, recover) are single-threaded, matching the
// host engines' control planes. Data pushes follow the host's own
// contract; Session::Drain is safe from consumer threads.

#ifndef ESLEV_SERVE_SERVER_H_
#define ESLEV_SERVE_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "serve/dispatcher.h"
#include "serve/plan_cache.h"
#include "serve/serve_host.h"
#include "serve/session.h"

namespace eslev {

struct QueryServerOptions {
  /// Reuse one physical pipeline for registrations whose canonical text
  /// matches (the tentpole optimisation). Off = every registration
  /// compiles its own pipeline (the E18 baseline).
  bool share_plans = true;
};

class QueryServer {
 public:
  /// \brief `host` must outlive the server.
  explicit QueryServer(ServeHost* host, QueryServerOptions options = {});

  // ---- operator plane ----------------------------------------------------

  /// \brief Run DDL and INSERT ... SELECT infrastructure statements on
  /// the host (and the shadow). Bare SELECT and EXPLAIN statements are
  /// rejected — tenants register SELECTs via Session::Register so every
  /// standing query has an owner, a name, and an admission charge.
  Status ExecuteScript(const std::string& sql);

  /// \brief Declare load statistics feeding admission pricing
  /// (CostAnalyzer cardinality/state estimates). Streams without
  /// declared stats use CostModelParams defaults.
  Status DeclareStreamStats(const std::string& stream, StreamStats stats);

  // ---- tenant plane ------------------------------------------------------

  Result<Session> OpenSession(const std::string& tenant,
                              TenantQuotas quotas = {});
  /// \brief A fresh handle to an already-open tenant — how a process
  /// reattaches to its sessions after RecoverFrom.
  Result<Session> AttachSession(const std::string& tenant);
  /// \brief Unregister every query of `tenant` and drop its outbox.
  Status CloseSession(const std::string& tenant);

  // ---- data plane --------------------------------------------------------

  Status Push(const std::string& stream, std::vector<Value> values,
              Timestamp ts);
  Status PushTuple(const std::string& stream, const Tuple& tuple);
  Status AdvanceTime(Timestamp now);
  /// \brief Settle in-flight work and pump buffered host emissions into
  /// tenant outboxes (a no-op pump on synchronous hosts, whose
  /// callbacks already ran during Push). Returns tuples pumped.
  Result<size_t> Poll();

  // ---- introspection -----------------------------------------------------

  /// \brief Host EXPLAIN, with a `-- serving:` header prepended when
  /// the statement's canonical text matches a live served pipeline.
  Result<std::string> Explain(const std::string& sql);

  /// \brief Host metrics merged with serving-layer metrics:
  /// serve.plan_cache.*, serve.tenants, serve.scripts,
  /// serve.orphan_emissions and per-tenant tenant.<id>.* series.
  Result<MetricsSnapshot> Metrics();

  const SharedPlanCache& plan_cache() const { return cache_; }
  size_t tenant_count() const { return tenants_.size(); }

  // ---- durability --------------------------------------------------------

  Status EnableWal(const std::string& path, WalOptions options = {});

  /// \brief Host checkpoint plus the session registry (session.reg):
  /// scripts, declared stats, tenants, quotas, registrations and the
  /// query-id counter — everything needed to rebuild the serving
  /// topology before replaying host state.
  Status Checkpoint(const std::string& dir);

  /// \brief Rebuild the full serving topology from `<dir>/session.reg`
  /// (re-running scripts and re-registering every pipeline at its
  /// original query id), then host-recover from `dir`. Must be called
  /// on a freshly constructed server whose host holds no streams or
  /// queries. Registrations made after the checkpoint are lost — the
  /// registry is only written by Checkpoint().
  Status RecoverFrom(const std::string& dir,
                     const ReplayOptions& options = {});

 private:
  friend class Session;

  struct TenantState {
    TenantQuotas quotas;
    std::map<std::string, ServedQueryInfo> queries;  // by name
    double admitted_state_tuples = 0;
    uint64_t rejected = 0;
  };
  /// One operator-plane statement, with the shadow's query-id counter
  /// *before* it ran — the registry replays scripts and tenant
  /// registrations in the original interleaving so INSERT queries
  /// re-acquire their original ids.
  struct ScriptOp {
    std::string sql;
    int next_id_before = 0;
  };

  // Session back-ends (Session is a thin handle).
  Result<ServedQueryInfo> Register(const std::string& tenant,
                                   const std::string& name,
                                   const std::string& sql);
  Status Unregister(const std::string& tenant, const std::string& name);
  Result<std::vector<ServedQueryInfo>> TenantQueries(
      const std::string& tenant) const;
  Result<size_t> DrainTenant(
      const std::string& tenant,
      const std::function<void(const ServedEmission&)>& fn, size_t max);
  size_t TenantPending(const std::string& tenant) const;
  double TenantAdmittedState(const std::string& tenant) const;

  /// Register `canonical` as a new physical pipeline on host + shadow at
  /// the next query id and subscribe the dispatcher to its output.
  Result<QueryInfo> CompilePipeline(const std::string& canonical);

  std::string EncodeRegistry() const;
  Status DecodeAndReplayRegistry(const std::string& bytes);

  ServeHost* host_;
  QueryServerOptions options_;
  Engine shadow_;
  SharedPlanCache cache_;
  Dispatcher dispatcher_;
  std::map<std::string, TenantState> tenants_;
  std::vector<ScriptOp> scripts_;
  std::map<std::string, StreamStats> declared_stats_;
};

}  // namespace eslev

#endif  // ESLEV_SERVE_SERVER_H_
