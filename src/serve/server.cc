#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "analysis/cost_model.h"
#include "recovery/checkpoint.h"
#include "recovery/codec.h"
#include "sql/canonical.h"
#include "sql/parser.h"

namespace eslev {

namespace {

/// Final frame of session.reg. A registry whose last frame is not this
/// marker lost its tail (ScanFrames tolerates torn tails; the serving
/// registry must not).
constexpr const char* kRegistryEndMarker = "eslev-session-registry-end";

}  // namespace

QueryServer::QueryServer(ServeHost* host, QueryServerOptions options)
    : host_(host),
      options_(options),
      cache_(options.share_plans) {}

Status QueryServer::ExecuteScript(const std::string& sql) {
  ESLEV_ASSIGN_OR_RETURN(std::vector<StatementPtr> stmts, ParseScript(sql));
  for (const StatementPtr& stmt : stmts) {
    if (stmt->kind == StatementKind::kSelect) {
      return Status::Invalid(
          "bare SELECT in operator script: standing result queries are "
          "tenant-owned — register them via Session::Register so they get "
          "a name, an owner and an admission charge");
    }
    if (stmt->kind == StatementKind::kExplain) {
      return Status::Invalid(
          "EXPLAIN in operator script: use QueryServer::Explain");
    }
  }
  for (const StatementPtr& stmt : stmts) {
    std::string text = stmt->span.length > 0
                           ? sql.substr(stmt->span.offset, stmt->span.length)
                           : stmt->ToString();
    ScriptOp op;
    op.sql = text;
    op.next_id_before = shadow_.next_query_id();
    ESLEV_RETURN_NOT_OK(host_->ExecuteScript(text));
    ESLEV_RETURN_NOT_OK(shadow_.ExecuteScript(text));
    scripts_.push_back(std::move(op));
  }
  return Status::OK();
}

Status QueryServer::DeclareStreamStats(const std::string& stream,
                                       StreamStats stats) {
  ESLEV_RETURN_NOT_OK(shadow_.DeclareStreamStats(stream, stats));
  declared_stats_[stream] = stats;
  return Status::OK();
}

Result<Session> QueryServer::OpenSession(const std::string& tenant,
                                         TenantQuotas quotas) {
  if (tenant.empty()) return Status::Invalid("tenant id must be non-empty");
  if (tenants_.count(tenant)) {
    return Status::AlreadyExists("tenant \"" + tenant +
                                 "\" already has an open session");
  }
  TenantState state;
  state.quotas = quotas;
  dispatcher_.AddTenant(tenant, quotas.max_pending_emissions,
                        quotas.backpressure);
  tenants_.emplace(tenant, std::move(state));
  return Session(this, tenant);
}

Result<Session> QueryServer::AttachSession(const std::string& tenant) {
  if (!tenants_.count(tenant)) {
    return Status::NotFound("no open session for tenant \"" + tenant + "\"");
  }
  return Session(this, tenant);
}

Status QueryServer::CloseSession(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("no open session for tenant \"" + tenant + "\"");
  }
  std::vector<std::string> names;
  for (const auto& [name, info] : it->second.queries) names.push_back(name);
  for (const std::string& name : names) {
    ESLEV_RETURN_NOT_OK(Unregister(tenant, name));
  }
  dispatcher_.RemoveTenant(tenant);
  tenants_.erase(tenant);
  return Status::OK();
}

Status QueryServer::Push(const std::string& stream, std::vector<Value> values,
                         Timestamp ts) {
  return host_->Push(stream, std::move(values), ts);
}

Status QueryServer::PushTuple(const std::string& stream, const Tuple& tuple) {
  return host_->PushTuple(stream, tuple);
}

Status QueryServer::AdvanceTime(Timestamp now) {
  return host_->AdvanceTime(now);
}

Result<size_t> QueryServer::Poll() {
  ESLEV_RETURN_NOT_OK(host_->Flush());
  return host_->DrainEmissions();
}

Result<ServedQueryInfo> QueryServer::Register(const std::string& tenant,
                                              const std::string& name,
                                              const std::string& sql) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("no open session for tenant \"" + tenant + "\"");
  }
  TenantState& state = it->second;
  if (name.empty()) return Status::Invalid("query name must be non-empty");
  if (state.queries.count(name)) {
    return Status::AlreadyExists("tenant \"" + tenant +
                                 "\" already registered query \"" + name +
                                 "\"");
  }
  if (state.quotas.max_queries != 0 &&
      state.queries.size() >= state.quotas.max_queries) {
    ++state.rejected;
    return Status::OutOfRange(
        "admission denied for tenant \"" + tenant + "\" query \"" + name +
        "\": query quota reached (" +
        std::to_string(state.quotas.max_queries) + ")");
  }

  ESLEV_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(sql));
  if (stmt->kind != StatementKind::kSelect) {
    return Status::Invalid(
        "Session::Register accepts bare SELECT standing queries only; DDL "
        "and INSERT belong to the operator plane "
        "(QueryServer::ExecuteScript)");
  }
  ESLEV_ASSIGN_OR_RETURN(CanonicalQuery canonical, CanonicalizeQuery(sql));

  // Price the registration: a cache hit reuses the stored bound (the
  // pipeline already runs; the tenant is still charged for its logical
  // share), a miss runs the PR 9 static analyzer on the shadow catalog.
  SharedPlanCache::Entry* entry = cache_.Lookup(canonical.text);
  double charge = 0;
  bool bounded = true;
  std::string summary;
  if (entry != nullptr) {
    charge = entry->state_tuples;
    bounded = entry->state_bounded;
    summary = entry->bound_summary;
  } else {
    CostAnalyzer analyzer(&shadow_);
    ESLEV_ASSIGN_OR_RETURN(QueryCostReport report,
                           analyzer.Analyze(*canonical.stmt));
    charge = report.total_state_tuples;
    bounded = report.state_bounded;
    summary = StateBoundSummary(report);
  }

  if (!bounded && !state.quotas.allow_unbounded_state) {
    ++state.rejected;
    return Status::OutOfRange(
        "admission denied for tenant \"" + tenant + "\" query \"" + name +
        "\": retained state is statically unbounded — " + summary +
        "; set TenantQuotas::allow_unbounded_state to admit anyway");
  }
  if (state.quotas.max_state_tuples > 0 &&
      state.admitted_state_tuples + charge > state.quotas.max_state_tuples) {
    ++state.rejected;
    return Status::OutOfRange(
        "admission denied for tenant \"" + tenant + "\" query \"" + name +
        "\": state bound " + summary + " exceeds the remaining budget (" +
        FormatCostNumber(state.admitted_state_tuples) + " of " +
        FormatCostNumber(state.quotas.max_state_tuples) +
        " tuples already admitted)");
  }

  bool shared = entry != nullptr;
  int engine_id = 0;
  if (entry != nullptr) {
    cache_.AddRef(entry);
    engine_id = entry->engine_query_id;
  } else {
    ESLEV_ASSIGN_OR_RETURN(QueryInfo info, CompilePipeline(canonical.text));
    SharedPlanCache::Entry fresh;
    fresh.canonical = canonical.text;
    fresh.hash = canonical.hash;
    fresh.engine_query_id = info.id;
    fresh.output_stream = info.output_stream;
    fresh.state_tuples = charge;
    fresh.state_bounded = bounded;
    fresh.bound_summary = summary;
    cache_.Insert(std::move(fresh));
    engine_id = info.id;
  }
  dispatcher_.AddRoute(engine_id, tenant, name);
  state.admitted_state_tuples += charge;

  ServedQueryInfo info;
  info.name = name;
  info.canonical = canonical.text;
  info.hash = canonical.hash;
  info.engine_query_id = engine_id;
  info.shared = shared;
  info.state_tuples = charge;
  info.state_bounded = bounded;
  state.queries.emplace(name, info);
  return info;
}

Status QueryServer::Unregister(const std::string& tenant,
                               const std::string& name) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("no open session for tenant \"" + tenant + "\"");
  }
  TenantState& state = it->second;
  auto query_it = state.queries.find(name);
  if (query_it == state.queries.end()) {
    return Status::NotFound("tenant \"" + tenant +
                            "\" has no registered query \"" + name + "\"");
  }
  const ServedQueryInfo info = query_it->second;

  // Quiesce and pump so every emission produced before this point is
  // already in tenant outboxes — unregistration drops the route, never
  // results the tenant was owed.
  ESLEV_RETURN_NOT_OK(host_->Flush());
  host_->DrainEmissions();

  dispatcher_.RemoveRoute(info.engine_query_id, tenant, name);
  if (cache_.Release(info.engine_query_id)) {
    ESLEV_RETURN_NOT_OK(host_->UnregisterQuery(info.engine_query_id));
    ESLEV_RETURN_NOT_OK(shadow_.UnregisterQuery(info.engine_query_id));
  }
  state.admitted_state_tuples =
      std::max(0.0, state.admitted_state_tuples - info.state_tuples);
  state.queries.erase(query_it);
  return Status::OK();
}

Result<std::vector<ServedQueryInfo>> QueryServer::TenantQueries(
    const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("no open session for tenant \"" + tenant + "\"");
  }
  std::vector<ServedQueryInfo> out;
  out.reserve(it->second.queries.size());
  for (const auto& [name, info] : it->second.queries) out.push_back(info);
  return out;
}

Result<size_t> QueryServer::DrainTenant(
    const std::string& tenant,
    const std::function<void(const ServedEmission&)>& fn, size_t max) {
  if (!tenants_.count(tenant)) {
    return Status::NotFound("no open session for tenant \"" + tenant + "\"");
  }
  return dispatcher_.Drain(tenant, fn, max);
}

size_t QueryServer::TenantPending(const std::string& tenant) const {
  return dispatcher_.Pending(tenant);
}

double QueryServer::TenantAdmittedState(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.admitted_state_tuples;
}

Result<QueryInfo> QueryServer::CompilePipeline(const std::string& canonical) {
  ESLEV_ASSIGN_OR_RETURN(QueryInfo info, host_->RegisterQuery(canonical));
  ESLEV_ASSIGN_OR_RETURN(QueryInfo mirror, shadow_.RegisterQuery(canonical));
  if (mirror.id != info.id) {
    return Status::ExecutionError(
        "serving shadow diverged from host: host assigned query id " +
        std::to_string(info.id) + ", shadow " + std::to_string(mirror.id));
  }
  const int id = info.id;
  ESLEV_RETURN_NOT_OK(host_->Subscribe(
      info.output_stream,
      [this, id](const Tuple& tuple) { dispatcher_.OnEmission(id, tuple); }));
  return info;
}

Result<std::string> QueryServer::Explain(const std::string& sql) {
  ESLEV_ASSIGN_OR_RETURN(std::string base, host_->Explain(sql));
  Result<StatementPtr> parsed = ParseStatement(sql);
  if (!parsed.ok()) return base;
  const Statement* inner = parsed->get();
  if (inner->kind == StatementKind::kExplain) {
    inner = static_cast<const ExplainStmt*>(inner)->inner.get();
  }
  if (inner == nullptr || inner->kind != StatementKind::kSelect) return base;
  Result<std::string> canonical = CanonicalStatementText(*inner);
  if (!canonical.ok()) return base;
  const SharedPlanCache::Entry* entry = cache_.Peek(*canonical);
  if (entry == nullptr) return base;

  std::string subscribers;
  for (const auto& [tenant, state] : tenants_) {
    for (const auto& [name, info] : state.queries) {
      if (info.engine_query_id != entry->engine_query_id) continue;
      if (!subscribers.empty()) subscribers += ", ";
      subscribers += tenant + "/" + name;
    }
  }
  std::string header = "-- serving: pipeline q" +
                       std::to_string(entry->engine_query_id) + ", " +
                       std::to_string(entry->refs) + " subscription(s)";
  if (!subscribers.empty()) header += " [" + subscribers + "]";
  header += cache_.sharing_enabled() ? ", sharing on" : ", sharing off";
  return header + "\n" + base;
}

Result<MetricsSnapshot> QueryServer::Metrics() {
  ESLEV_ASSIGN_OR_RETURN(MetricsSnapshot snap, host_->Metrics());
  cache_.AppendMetrics(&snap);
  dispatcher_.AppendMetrics(&snap);
  snap.gauges["serve.tenants"] = static_cast<int64_t>(tenants_.size());
  snap.gauges["serve.scripts"] = static_cast<int64_t>(scripts_.size());
  for (const auto& [tenant, state] : tenants_) {
    const std::string prefix = "tenant." + tenant + ".";
    snap.gauges[prefix + "queries"] =
        static_cast<int64_t>(state.queries.size());
    snap.gauges[prefix + "state_admitted_tuples"] =
        static_cast<int64_t>(std::ceil(state.admitted_state_tuples));
    snap.gauges[prefix + "state_budget_tuples"] =
        static_cast<int64_t>(std::ceil(state.quotas.max_state_tuples));
    snap.counters[prefix + "rejected"] += state.rejected;
  }
  return snap;
}

Status QueryServer::EnableWal(const std::string& path, WalOptions options) {
  return host_->EnableWal(path, std::move(options));
}

Status QueryServer::Checkpoint(const std::string& dir) {
  ESLEV_RETURN_NOT_OK(host_->Checkpoint(dir));
  return WriteFileAtomic(dir + "/" + kSessionRegistryFileName,
                         EncodeRegistry());
}

std::string QueryServer::EncodeRegistry() const {
  std::string out;
  AppendFrame(EncodeCheckpointHeader(), &out);

  BinaryEncoder body;
  body.PutU32(static_cast<uint32_t>(shadow_.next_query_id()));
  body.PutU32(static_cast<uint32_t>(scripts_.size()));
  for (const ScriptOp& op : scripts_) {
    body.PutU32(static_cast<uint32_t>(op.next_id_before));
    body.PutString(op.sql);
  }
  body.PutU32(static_cast<uint32_t>(declared_stats_.size()));
  for (const auto& [stream, stats] : declared_stats_) {
    body.PutString(stream);
    body.PutDouble(stats.rate_per_sec);
    body.PutDouble(stats.distinct_keys);
  }
  body.PutU32(static_cast<uint32_t>(tenants_.size()));
  for (const auto& [tenant, state] : tenants_) {
    body.PutString(tenant);
    body.PutU32(state.quotas.max_queries);
    body.PutDouble(state.quotas.max_state_tuples);
    body.PutU32(state.quotas.max_pending_emissions);
    body.PutBool(state.quotas.allow_unbounded_state);
    body.PutU8(static_cast<uint8_t>(state.quotas.backpressure));
    body.PutU32(static_cast<uint32_t>(state.queries.size()));
    for (const auto& [name, info] : state.queries) {
      body.PutString(name);
      body.PutU32(static_cast<uint32_t>(info.engine_query_id));
      body.PutString(info.canonical);
      body.PutU64(info.hash);
      body.PutDouble(info.state_tuples);
      body.PutBool(info.state_bounded);
      const SharedPlanCache::Entry* entry =
          cache_.FindById(info.engine_query_id);
      body.PutString(entry != nullptr ? entry->bound_summary : "");
    }
  }
  AppendFrame(body.TakeBuffer(), &out);
  AppendFrame(kRegistryEndMarker, &out);
  return out;
}

Status QueryServer::RecoverFrom(const std::string& dir,
                                const ReplayOptions& options) {
  if (!tenants_.empty() || !scripts_.empty() || cache_.size() != 0) {
    return Status::Invalid(
        "QueryServer::RecoverFrom requires a freshly constructed server "
        "(no scripts, tenants or pipelines)");
  }
  ESLEV_ASSIGN_OR_RETURN(
      std::string bytes,
      ReadFileAll(dir + "/" + kSessionRegistryFileName));
  ESLEV_RETURN_NOT_OK(DecodeAndReplayRegistry(bytes));
  return host_->RecoverFrom(dir, options);
}

Status QueryServer::DecodeAndReplayRegistry(const std::string& bytes) {
  ESLEV_ASSIGN_OR_RETURN(FrameScanResult frames,
                         ScanFrames(bytes.data(), bytes.size()));
  if (frames.payloads.size() != 3 ||
      frames.payloads.back() != kRegistryEndMarker) {
    return Status::IoError(
        "session registry is truncated or malformed (expected header, "
        "body and end-marker frames)");
  }
  ESLEV_RETURN_NOT_OK(
      ValidateCheckpointHeader(frames.payloads[0], "session registry"));

  BinaryDecoder body(frames.payloads[1]);
  ESLEV_ASSIGN_OR_RETURN(uint32_t next_engine_id, body.GetU32());

  std::vector<ScriptOp> scripts;
  ESLEV_ASSIGN_OR_RETURN(uint32_t nscripts, body.GetU32());
  for (uint32_t i = 0; i < nscripts; ++i) {
    ScriptOp op;
    ESLEV_ASSIGN_OR_RETURN(uint32_t before, body.GetU32());
    op.next_id_before = static_cast<int>(before);
    ESLEV_ASSIGN_OR_RETURN(op.sql, body.GetString());
    scripts.push_back(std::move(op));
  }

  std::map<std::string, StreamStats> stats;
  ESLEV_ASSIGN_OR_RETURN(uint32_t nstats, body.GetU32());
  for (uint32_t i = 0; i < nstats; ++i) {
    ESLEV_ASSIGN_OR_RETURN(std::string stream, body.GetString());
    StreamStats s;
    ESLEV_ASSIGN_OR_RETURN(s.rate_per_sec, body.GetDouble());
    ESLEV_ASSIGN_OR_RETURN(s.distinct_keys, body.GetDouble());
    stats.emplace(std::move(stream), s);
  }

  struct TenantRecord {
    std::string id;
    TenantQuotas quotas;
    std::vector<ServedQueryInfo> queries;
    std::vector<std::string> summaries;  // parallel to `queries`
  };
  std::vector<TenantRecord> tenant_records;
  ESLEV_ASSIGN_OR_RETURN(uint32_t ntenants, body.GetU32());
  for (uint32_t i = 0; i < ntenants; ++i) {
    TenantRecord record;
    ESLEV_ASSIGN_OR_RETURN(record.id, body.GetString());
    ESLEV_ASSIGN_OR_RETURN(record.quotas.max_queries, body.GetU32());
    ESLEV_ASSIGN_OR_RETURN(record.quotas.max_state_tuples, body.GetDouble());
    ESLEV_ASSIGN_OR_RETURN(record.quotas.max_pending_emissions,
                           body.GetU32());
    ESLEV_ASSIGN_OR_RETURN(record.quotas.allow_unbounded_state,
                           body.GetBool());
    ESLEV_ASSIGN_OR_RETURN(uint8_t policy, body.GetU8());
    record.quotas.backpressure = static_cast<BackpressurePolicy>(policy);
    ESLEV_ASSIGN_OR_RETURN(uint32_t nqueries, body.GetU32());
    for (uint32_t j = 0; j < nqueries; ++j) {
      ServedQueryInfo info;
      ESLEV_ASSIGN_OR_RETURN(info.name, body.GetString());
      ESLEV_ASSIGN_OR_RETURN(uint32_t engine_id, body.GetU32());
      info.engine_query_id = static_cast<int>(engine_id);
      ESLEV_ASSIGN_OR_RETURN(info.canonical, body.GetString());
      ESLEV_ASSIGN_OR_RETURN(info.hash, body.GetU64());
      ESLEV_ASSIGN_OR_RETURN(info.state_tuples, body.GetDouble());
      ESLEV_ASSIGN_OR_RETURN(info.state_bounded, body.GetBool());
      ESLEV_ASSIGN_OR_RETURN(std::string summary, body.GetString());
      record.queries.push_back(std::move(info));
      record.summaries.push_back(std::move(summary));
    }
    tenant_records.push_back(std::move(record));
  }
  if (!body.AtEnd()) {
    return Status::IoError("session registry body has trailing bytes");
  }

  // Replay scripts and pipeline registrations in the original
  // interleaving: ascending query id, scripts before the registration
  // that consumed the same id (a DDL script observed id K strictly
  // before the query that acquired K), script log order preserved.
  struct ReplayOp {
    int id = 0;
    int kind = 0;  // 0 = script, 1 = pipeline
    size_t index = 0;
    const ScriptOp* script = nullptr;
    const ServedQueryInfo* pipeline = nullptr;
    const std::string* summary = nullptr;
  };
  std::vector<ReplayOp> ops;
  for (size_t i = 0; i < scripts.size(); ++i) {
    ReplayOp op;
    op.id = scripts[i].next_id_before;
    op.kind = 0;
    op.index = i;
    op.script = &scripts[i];
    ops.push_back(op);
  }
  std::map<int, ReplayOp> pipelines;  // unique physical entries, by id
  for (const TenantRecord& record : tenant_records) {
    for (size_t j = 0; j < record.queries.size(); ++j) {
      const ServedQueryInfo& info = record.queries[j];
      if (pipelines.count(info.engine_query_id)) continue;
      ReplayOp op;
      op.id = info.engine_query_id;
      op.kind = 1;
      op.pipeline = &info;
      op.summary = &record.summaries[j];
      pipelines.emplace(info.engine_query_id, op);
    }
  }
  for (const auto& [id, op] : pipelines) ops.push_back(op);
  std::stable_sort(ops.begin(), ops.end(),
                   [](const ReplayOp& a, const ReplayOp& b) {
                     return std::tie(a.id, a.kind, a.index) <
                            std::tie(b.id, b.kind, b.index);
                   });

  std::map<int, SharedPlanCache::Entry*> rebuilt;
  for (const ReplayOp& op : ops) {
    if (shadow_.next_query_id() < op.id) {
      ESLEV_RETURN_NOT_OK(host_->SetNextQueryId(op.id));
      ESLEV_RETURN_NOT_OK(shadow_.SetNextQueryId(op.id));
    }
    if (op.kind == 0) {
      ESLEV_RETURN_NOT_OK(host_->ExecuteScript(op.script->sql));
      ESLEV_RETURN_NOT_OK(shadow_.ExecuteScript(op.script->sql));
      scripts_.push_back(*op.script);
      continue;
    }
    ESLEV_ASSIGN_OR_RETURN(QueryInfo info,
                           CompilePipeline(op.pipeline->canonical));
    if (info.id != op.pipeline->engine_query_id) {
      return Status::ExecutionError(
          "registry replay assigned query id " + std::to_string(info.id) +
          " where the checkpoint recorded " +
          std::to_string(op.pipeline->engine_query_id));
    }
    SharedPlanCache::Entry entry;
    entry.canonical = op.pipeline->canonical;
    entry.hash = op.pipeline->hash;
    entry.engine_query_id = info.id;
    entry.output_stream = info.output_stream;
    entry.state_tuples = op.pipeline->state_tuples;
    entry.state_bounded = op.pipeline->state_bounded;
    entry.bound_summary = *op.summary;
    SharedPlanCache::Entry* inserted = cache_.Insert(std::move(entry));
    inserted->refs = 0;  // tenant attachments below take the refs
    rebuilt.emplace(info.id, inserted);
  }
  if (shadow_.next_query_id() < static_cast<int>(next_engine_id)) {
    ESLEV_RETURN_NOT_OK(host_->SetNextQueryId(static_cast<int>(next_engine_id)));
    ESLEV_RETURN_NOT_OK(shadow_.SetNextQueryId(static_cast<int>(next_engine_id)));
  }

  for (const TenantRecord& record : tenant_records) {
    TenantState state;
    state.quotas = record.quotas;
    dispatcher_.AddTenant(record.id, record.quotas.max_pending_emissions,
                          record.quotas.backpressure);
    for (size_t j = 0; j < record.queries.size(); ++j) {
      ServedQueryInfo info = record.queries[j];
      auto entry_it = rebuilt.find(info.engine_query_id);
      if (entry_it == rebuilt.end()) {
        return Status::IoError("session registry references query id " +
                               std::to_string(info.engine_query_id) +
                               " with no pipeline record");
      }
      cache_.AddRef(entry_it->second);
      info.shared = entry_it->second->refs > 1;
      dispatcher_.AddRoute(info.engine_query_id, record.id, info.name);
      state.admitted_state_tuples += info.state_tuples;
      state.queries.emplace(info.name, std::move(info));
    }
    tenants_.emplace(record.id, std::move(state));
  }

  for (const auto& [stream, s] : stats) {
    ESLEV_RETURN_NOT_OK(DeclareStreamStats(stream, s));
  }
  return Status::OK();
}

// ---- Session (thin handle) -------------------------------------------------

Result<ServedQueryInfo> Session::Register(const std::string& name,
                                          const std::string& sql) {
  if (server_ == nullptr) return Status::Invalid("session is not attached");
  return server_->Register(tenant_, name, sql);
}

Status Session::Unregister(const std::string& name) {
  if (server_ == nullptr) return Status::Invalid("session is not attached");
  return server_->Unregister(tenant_, name);
}

Result<std::vector<ServedQueryInfo>> Session::Queries() const {
  if (server_ == nullptr) return Status::Invalid("session is not attached");
  return server_->TenantQueries(tenant_);
}

Result<size_t> Session::Drain(
    const std::function<void(const ServedEmission&)>& fn, size_t max) {
  if (server_ == nullptr) return Status::Invalid("session is not attached");
  return server_->DrainTenant(tenant_, fn, max);
}

size_t Session::pending() const {
  return server_ == nullptr ? 0 : server_->TenantPending(tenant_);
}

double Session::admitted_state_tuples() const {
  return server_ == nullptr ? 0 : server_->TenantAdmittedState(tenant_);
}

}  // namespace eslev
