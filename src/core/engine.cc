#include "core/engine.h"

#include "analysis/analyzer.h"
#include "common/string_util.h"
#include "expr/sql_uda.h"
#include "plan/snapshot_executor.h"

namespace eslev {

Engine::Engine(EngineOptions options)
    : options_(options), front_(this, options_.ingest) {
  // A constructor cannot return a Status, so a bad ingest option parks
  // the engine in an error state surfaced by the first API call instead
  // of being ignored.
  init_error_ = front_.init_status();
}

Engine::~Engine() = default;

Status Engine::CreateStream(const std::string& name, SchemaPtr schema) {
  if (streams_.count(name) || tables_.count(name)) {
    return Status::AlreadyExists("stream or table already exists: " + name);
  }
  auto stream = std::make_unique<Stream>(name, std::move(schema));
  if (options_.default_retention > 0) {
    stream->SetRetention(options_.default_retention);
  }
  streams_.emplace(AsciiToLower(name), std::move(stream));
  return Status::OK();
}

Status Engine::CreateTable(const std::string& name, SchemaPtr schema) {
  if (streams_.count(name) || tables_.count(name)) {
    return Status::AlreadyExists("stream or table already exists: " + name);
  }
  tables_.emplace(AsciiToLower(name),
                  std::make_unique<Table>(name, std::move(schema)));
  return Status::OK();
}

Stream* Engine::FindStream(const std::string& name) const {
  auto it = streams_.find(name);
  return it == streams_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Engine::StreamNames() const {
  std::vector<std::string> names;
  names.reserve(streams_.size());
  for (const auto& [key, stream] : streams_) {
    names.push_back(stream->name());
  }
  return names;
}

Table* Engine::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Engine::ExecuteScript(const std::string& sql) {
  ESLEV_RETURN_NOT_OK(init_error_);
  ESLEV_ASSIGN_OR_RETURN(auto statements, ParseScript(sql));
  for (const StatementPtr& stmt : statements) {
    ESLEV_RETURN_NOT_OK(ExecuteStatement(*stmt));
  }
  return Status::OK();
}

Status Engine::ExecuteStatement(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kCreateStream:
    case StatementKind::kCreateTable: {
      const auto& create = static_cast<const CreateStmt&>(stmt);
      SchemaPtr schema = Schema::Make(create.fields);
      if (create.is_stream) {
        return CreateStream(create.name, std::move(schema));
      }
      return CreateTable(create.name, std::move(schema));
    }
    case StatementKind::kCreateAggregate: {
      const auto& create = static_cast<const CreateAggregateStmt&>(stmt);
      ESLEV_ASSIGN_OR_RETURN(AggregateFunction fn,
                             CompileSqlUda(create, registry_));
      return registry_.RegisterAggregate(std::move(fn));
    }
    case StatementKind::kInsert:
    case StatementKind::kSelect: {
      ESLEV_ASSIGN_OR_RETURN(QueryInfo info, RegisterParsed(stmt));
      (void)info;
      return Status::OK();
    }
    case StatementKind::kExplain:
      return Status::Invalid(
          "EXPLAIN produces text; use Engine::Explain instead of "
          "ExecuteScript");
  }
  return Status::Invalid("unknown statement kind");
}

Result<QueryInfo> Engine::RegisterQuery(const std::string& sql) {
  ESLEV_RETURN_NOT_OK(init_error_);
  ESLEV_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(sql));
  return RegisterParsed(*stmt);
}

Result<QueryInfo> Engine::RegisterParsed(const Statement& stmt) {
  Planner planner(this);
  ESLEV_ASSIGN_OR_RETURN(PlannedQuery planned, planner.Plan(stmt));

  QueryInfo info;
  info.id = next_query_id_++;
  planned.query_id = info.id;

  if (planned.target_is_table) {
    info.output_table = planned.target;
  } else {
    std::string out_name = planned.target;
    if (out_name.empty()) {
      // Bare SELECT: materialize the answer as a derived stream.
      out_name = "_q" + std::to_string(info.id);
      ESLEV_RETURN_NOT_OK(CreateStream(out_name, planned.output_schema));
      derived_[AsciiToLower(out_name)] = true;
    }
    Stream* out = FindStream(out_name);
    if (out == nullptr) {
      return Status::NotFound("INSERT target not found: " + out_name);
    }
    derived_[AsciiToLower(out_name)] = true;
    auto sink = std::make_unique<StreamInsertOperator>(out);
    planned.tail->AddSink(sink.get(), 0);
    planned.sink = sink.get();
    sinks_.push_back(std::move(sink));
    info.output_stream = out_name;
  }

  // Wire the source subscriptions last, so a partially built pipeline
  // never observes tuples.
  for (const auto& sub : planned.subscriptions) {
    sub.stream->Subscribe(sub.op, sub.port);
  }
  queries_.push_back(std::move(planned));
  return info;
}

Status Engine::UnregisterQuery(int id) {
  ESLEV_RETURN_NOT_OK(init_error_);
  size_t index = queries_.size();
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i].query_id == id) {
      index = i;
      break;
    }
  }
  if (index == queries_.size()) {
    return Status::NotFound("no registered query with id " +
                            std::to_string(id));
  }
  PlannedQuery& q = queries_[index];
  // A bare SELECT owns its auto-created `_q<id>` stream; it cannot be
  // dropped while another query still reads from it.
  std::string owned_stream;
  if (!q.target_is_table && q.target.empty()) {
    owned_stream = "_q" + std::to_string(id);
  }
  if (!owned_stream.empty()) {
    Stream* out = FindStream(owned_stream);
    for (const PlannedQuery& other : queries_) {
      if (other.query_id == id) continue;
      for (const auto& sub : other.subscriptions) {
        if (sub.stream == out) {
          return Status::Invalid(
              "cannot unregister query " + std::to_string(id) +
              ": its output stream " + owned_stream + " feeds query " +
              std::to_string(other.query_id));
        }
      }
    }
  }
  // Detach from the sources first so no in-flight delivery can reach a
  // half-destroyed pipeline, then drop the sink and the operators.
  for (const auto& sub : q.subscriptions) {
    sub.stream->Unsubscribe(sub.op);
  }
  if (q.sink != nullptr) {
    for (auto it = sinks_.begin(); it != sinks_.end(); ++it) {
      if (it->get() == q.sink) {
        sinks_.erase(it);
        break;
      }
    }
  }
  queries_.erase(queries_.begin() + index);
  if (!owned_stream.empty()) {
    streams_.erase(owned_stream);
    front_.RebindPorts(
        [this](const std::string& key) { return FindStream(key); });
  }
  // Re-derive the derived-stream set: an INSERT target whose last
  // producer just vanished must resume receiving source heartbeats.
  derived_.clear();
  for (const PlannedQuery& other : queries_) {
    if (other.target_is_table) continue;
    const std::string out = other.target.empty()
                                ? "_q" + std::to_string(other.query_id)
                                : other.target;
    derived_[AsciiToLower(out)] = true;
  }
  return Status::OK();
}

Status Engine::SetNextQueryId(int id) {
  ESLEV_RETURN_NOT_OK(init_error_);
  if (id < 1) {
    return Status::Invalid("next query id must be >= 1, got " +
                           std::to_string(id));
  }
  for (const PlannedQuery& q : queries_) {
    if (q.query_id >= id) {
      return Status::Invalid(
          "next query id " + std::to_string(id) +
          " does not exceed registered query " + std::to_string(q.query_id));
    }
  }
  next_query_id_ = id;
  return Status::OK();
}

Result<std::vector<Tuple>> Engine::ExecuteSnapshot(const std::string& sql) {
  ESLEV_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(sql));
  if (stmt->kind != StatementKind::kSelect) {
    return Status::Invalid("snapshot queries must be SELECT statements");
  }
  SnapshotExecutor executor(this, clock_);
  return executor.Execute(*static_cast<const SelectStatement&>(*stmt).select);
}

Result<std::string> Engine::Explain(const std::string& sql) {
  ESLEV_ASSIGN_OR_RETURN(StatementPtr stmt, ParseStatement(sql));
  if (stmt->kind == StatementKind::kExplain) {
    const auto& explain = static_cast<const ExplainStmt&>(*stmt);
    if (explain.mode == ExplainMode::kLint) {
      QueryAnalyzer analyzer(this);
      ESLEV_ASSIGN_OR_RETURN(std::vector<Diagnostic> diags,
                             analyzer.Analyze(*explain.inner));
      return DiagnosticsToJson(diags);
    }
    if (explain.mode == ExplainMode::kCost) {
      CostAnalyzer analyzer(this);
      ESLEV_ASSIGN_OR_RETURN(QueryCostReport report,
                             analyzer.Analyze(*explain.inner));
      return report.ToJson();
    }
    return ExplainParsed(*explain.inner,
                         explain.mode == ExplainMode::kAnalyze);
  }
  if (stmt->kind != StatementKind::kInsert &&
      stmt->kind != StatementKind::kSelect) {
    return Status::Invalid("EXPLAIN applies to SELECT / INSERT statements");
  }
  return ExplainParsed(*stmt, /*analyze=*/false);
}

Result<std::vector<Diagnostic>> Engine::Lint(const std::string& sql) const {
  QueryAnalyzer analyzer(this);
  return analyzer.AnalyzeSql(sql);
}

Result<std::vector<QueryCostReport>> Engine::AnalyzeCost(
    const std::string& sql) const {
  ESLEV_ASSIGN_OR_RETURN(auto statements, ParseScript(sql));
  CostAnalyzer analyzer(this);
  std::vector<QueryCostReport> out;
  for (const StatementPtr& stmt : statements) {
    if (stmt->kind != StatementKind::kSelect &&
        stmt->kind != StatementKind::kInsert) {
      continue;
    }
    ESLEV_ASSIGN_OR_RETURN(QueryCostReport report, analyzer.Analyze(*stmt));
    out.push_back(std::move(report));
  }
  return out;
}

Status Engine::DeclareStreamStats(const std::string& stream,
                                  StreamStats stats) {
  const auto found = streams_.find(stream);
  if (found == streams_.end()) {
    return Status::NotFound("DeclareStreamStats: unknown stream " + stream);
  }
  stream_stats_[found->first] = stats;
  return Status::OK();
}

const StreamStats* Engine::FindStreamStats(const std::string& name) const {
  const auto it = stream_stats_.find(name);
  return it == stream_stats_.end() ? nullptr : &it->second;
}

namespace {

// One "[tuples_in=.. tuples_out=.. ...]" annotation per plan step.
std::string OperatorCounters(const Operator& op) {
  std::string out = "  [tuples_in=" + std::to_string(op.tuples_in()) +
                    " tuples_out=" + std::to_string(op.tuples_emitted()) +
                    " heartbeats=" + std::to_string(op.heartbeats_in());
  OperatorStatList extras;
  op.AppendStats(&extras);
  for (const auto& [name, value] : extras) {
    out += " " + name + "=" + std::to_string(value);
  }
  out += "]";
  return out;
}

}  // namespace

Result<std::string> Engine::ExplainParsed(const Statement& stmt,
                                          bool analyze) {
  Planner planner(this);
  ESLEV_ASSIGN_OR_RETURN(PlannedQuery planned, planner.Plan(stmt));

  const PlannedQuery* live = nullptr;
  if (analyze) {
    // EXPLAIN ANALYZE reports the live counters of the registered query
    // with this exact plan (plan text is deterministic for the same
    // statement). First registration wins when duplicates exist.
    for (const PlannedQuery& q : queries_) {
      if (q.notes == planned.notes) {
        live = &q;
        break;
      }
    }
    if (live == nullptr) {
      return Status::NotFound(
          "EXPLAIN ANALYZE: no registered query matches this plan; "
          "register the query first");
    }
  }

  const PlannedQuery& shown = live != nullptr ? *live : planned;
  std::string out;
  if (live != nullptr) {
    out += "Query " + std::to_string(shown.query_id) + " (analyzed)\n";
    if (front_.ingest_enabled()) {
      out += front_.ingest()->ExplainLine() + "\n";
    }
  }
  for (size_t i = 0; i < shown.notes.size(); ++i) {
    out += shown.notes[i];
    if (live != nullptr && shown.note_ops[i] != nullptr) {
      out += OperatorCounters(*shown.note_ops[i]);
    }
    out += "\n";
  }
  out += "Output: (" + planned.output_schema->ToString() + ")";
  if (!planned.target.empty()) {
    out += planned.target_is_table ? " -> table " : " -> stream ";
    out += planned.target;
  }
  return out;
}

MetricsSnapshot Engine::Metrics() const {
  MetricsSnapshot snap;
  snap.gauges["engine.clock"] = static_cast<int64_t>(clock_);
  for (const auto& [key, stream] : streams_) {
    const std::string prefix = "stream." + key + ".";
    snap.counters[prefix + "tuples_in"] = stream->tuples_pushed();
    snap.counters[prefix + "heartbeats"] = stream->heartbeats_delivered();
    snap.gauges[prefix + "retained"] =
        static_cast<int64_t>(stream->retained_count());
  }
  for (const PlannedQuery& q : queries_) {
    size_t op_index = 0;
    for (size_t i = 0; i < q.note_ops.size(); ++i) {
      const Operator* op = q.note_ops[i];
      if (op == nullptr) continue;
      std::string label = op->label().empty() ? "op" : op->label();
      const std::string prefix = "query" + std::to_string(q.query_id) +
                                 ".op" + std::to_string(op_index++) + "." +
                                 label + ".";
      snap.counters[prefix + "tuples_in"] = op->tuples_in();
      snap.counters[prefix + "tuples_out"] = op->tuples_emitted();
      snap.counters[prefix + "heartbeats"] = op->heartbeats_in();
      OperatorStatList extras;
      op->AppendStats(&extras);
      for (const auto& [name, value] : extras) {
        snap.gauges[prefix + name] = value;
      }
    }
  }
  // Ingest (DESIGN.md §15) and durability (DESIGN.md §10).
  front_.AppendMetrics(&snap);
  if (front_.ingest_enabled()) {
    snap.gauges["ingest.input_clock"] =
        static_cast<int64_t>(ingest_input_clock_);
  } else {
    snap.gauges["ingest.enabled"] = 0;
  }
  snap.counters["recovery.checkpoints"] = checkpoints_taken_;
  snap.gauges["recovery.last_checkpoint_bytes"] =
      static_cast<int64_t>(last_checkpoint_bytes_);
  snap.gauges["recovery.last_checkpoint_duration_us"] =
      last_checkpoint_duration_us_;
  uint64_t suppressed = 0;
  for (const auto& [key, stream] : streams_) {
    suppressed += stream->callbacks_suppressed();
  }
  snap.counters["recovery.duplicates_suppressed"] = suppressed;
  return snap;
}

Status Engine::Subscribe(const std::string& stream, TupleCallback callback) {
  Stream* s = FindStream(stream);
  if (s == nullptr) return Status::NotFound("stream not found: " + stream);
  s->SubscribeCallback(std::move(callback));
  return Status::OK();
}

Status Engine::Push(const std::string& stream, std::vector<Value> values,
                    Timestamp ts) {
  Stream* s = FindStream(stream);
  if (s == nullptr) return Status::NotFound("stream not found: " + stream);
  ESLEV_ASSIGN_OR_RETURN(Tuple tuple,
                         MakeTuple(s->schema(), std::move(values), ts));
  return OfferTo(s, tuple, /*log=*/true);
}

Status Engine::Offer(const std::string& stream, const Tuple& tuple,
                     bool log) {
  Stream* s = FindStream(stream);
  if (s == nullptr) return Status::NotFound("stream not found: " + stream);
  return OfferTo(s, tuple, log);
}

Status Engine::OfferTo(Stream* s, const Tuple& tuple, bool log) {
  ESLEV_RETURN_NOT_OK(init_error_);
  if (front_.ingest_enabled()) {
    // With a reorder stage, disorder up to the lateness bound is the
    // point — the stage owns the policy (buffer, or count as late).
    // Without one, the cleaning stage still requires ordered input.
    if (front_.ingest_options().lateness_bound == 0 &&
        tuple.ts() < ingest_input_clock_) {
      return Status::OutOfRange(
          "out-of-order tuple: ts " + FormatTimestamp(tuple.ts()) +
          " is before the ingest clock " +
          FormatTimestamp(ingest_input_clock_) +
          " (configure ingest.lateness_bound for disordered input)");
    }
    ingest_input_clock_ = std::max(ingest_input_clock_, tuple.ts());
  } else if (tuple.ts() < clock_) {
    return Status::OutOfRange(
        "out-of-order tuple: ts " + FormatTimestamp(tuple.ts()) +
        " is before the engine clock " + FormatTimestamp(clock_) +
        " (the joint tuple history is totally ordered)");
  }
  return front_.Push(s, s->name(), tuple, log);
}

Status Engine::Tick(Timestamp now, bool log) {
  ESLEV_RETURN_NOT_OK(init_error_);
  if (now < (front_.ingest_enabled() ? ingest_input_clock_ : clock_)) {
    return Status::OutOfRange("time cannot move backwards");
  }
  if (front_.ingest_enabled()) ingest_input_clock_ = now;
  return front_.Tick(now, log);
}

Status Engine::DeliverTuple(Stream* s, const Tuple& tuple) {
  clock_ = std::max(clock_, tuple.ts());
  return s->Push(tuple);
}

Status Engine::DeliverHeartbeat(Timestamp now) {
  clock_ = std::max(clock_, now);
  for (auto& [key, stream] : streams_) {
    if (derived_.count(key)) continue;  // reached through the pipelines
    ESLEV_RETURN_NOT_OK(stream->Heartbeat(now));
  }
  return Status::OK();
}

}  // namespace eslev
