// Engine: the public API of the ESL-EV DSMS.
//
// Typical usage (Example 1, duplicate elimination):
// \code
//   Engine engine;
//   ESLEV_CHECK_OK(engine.ExecuteScript(R"sql(
//     CREATE STREAM readings(reader_id, tag_id, read_time);
//     CREATE STREAM cleaned_readings(reader_id, tag_id, read_time);
//     INSERT INTO cleaned_readings
//     SELECT * FROM readings AS r1
//     WHERE NOT EXISTS
//       (SELECT * FROM TABLE( readings OVER
//           (RANGE 1 seconds PRECEDING CURRENT)) AS r2
//        WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);
//   )sql"));
//   engine.Subscribe("cleaned_readings", [](const Tuple& t) { ... });
//   engine.Push("readings", {...values...}, ts);
// \endcode
//
// Execution is single-threaded run-to-completion: Push() drives a tuple
// through every subscribed pipeline before returning; AdvanceTime()
// delivers heartbeats (active expiration) without tuples.

#ifndef ESLEV_CORE_ENGINE_H_
#define ESLEV_CORE_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "analysis/diagnostic.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "core/front_end.h"
#include "plan/catalog.h"
#include "plan/planner.h"
#include "sql/parser.h"

namespace eslev {

struct EngineOptions {
  /// Retention for ad-hoc snapshot queries over streams; 0 disables.
  /// Individual streams can override via Stream::SetRetention.
  Duration default_retention = 0;
  /// Ingest subsystem (DESIGN.md §15): bounded reordering and RFID read
  /// cleaning between stream sources and the pipelines. Disabled by
  /// default (all bounds 0) — input must arrive in timestamp order (the
  /// paper's joint tuple history is totally ordered), and a push behind
  /// the engine clock is rejected. Invalid values surface as an error
  /// from the first API call.
  IngestOptions ingest;
};

/// \brief Controls duplicate suppression during WAL replay (DESIGN.md
/// §10). The checkpoint records each stream's lifetime push count, which
/// doubles as the last-emitted sequence number of every derived stream.
struct ReplayOptions {
  /// false (default): user callbacks stay muted for the whole replay —
  /// correct for synchronous consumers, which had already observed every
  /// replayed emission before the crash. true: callbacks fire for every
  /// replayed tuple (at-least-once consumers).
  bool deliver_callbacks = false;
  /// Per-stream override (name, case-insensitive): callbacks fire only
  /// for emissions with sequence number > the given value. Lets a
  /// consumer that durably acknowledged N emissions receive exactly the
  /// lost tail. Takes precedence over `deliver_callbacks`.
  std::map<std::string, uint64_t> deliver_after;
};

/// \brief Handle to a registered continuous query.
struct QueryInfo {
  int id = 0;
  /// Stream receiving the query's output (the INSERT target, or an
  /// auto-created `_q<id>` stream for bare SELECTs). Empty when the
  /// target is a table.
  std::string output_stream;
  /// Table receiving the output, when the INSERT target is a table.
  std::string output_table;
};

class Engine : public Catalog {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine() override;

  // ---- DDL ---------------------------------------------------------------

  Status CreateStream(const std::string& name, SchemaPtr schema);
  Status CreateTable(const std::string& name, SchemaPtr schema);

  // ---- queries -----------------------------------------------------------

  /// \brief Run a script: DDL statements execute immediately; SELECT /
  /// INSERT statements register as continuous queries.
  Status ExecuteScript(const std::string& sql);

  /// \brief Register one continuous query (SELECT or INSERT ... SELECT).
  Result<QueryInfo> RegisterQuery(const std::string& sql);

  /// \brief Remove a registered continuous query at runtime (DESIGN.md
  /// §17): detaches its source subscriptions, destroys its operators and
  /// sink, and — for bare SELECTs — drops the auto-created `_q<id>`
  /// output stream together with its subscribed callbacks. Fails without
  /// side effects when the id is unknown or another query reads the
  /// owned output stream. Unregistration is a control-plane operation:
  /// it is not WAL-logged, so durability comes from the next checkpoint
  /// (the serving registry re-registers the survivors on recovery).
  Status UnregisterQuery(int id);

  /// \brief Set the id the next registration will receive. Recovery
  /// hook: re-registering a query set whose ids have gaps (queries
  /// unregistered before the checkpoint) must reproduce the original
  /// ids, because checkpoints validate them positionally. Fails when
  /// `id` does not exceed every live query id.
  Status SetNextQueryId(int id);
  int next_query_id() const { return next_query_id_; }

  /// \brief Ad-hoc one-shot query over tables and retained stream
  /// history (§2.1 ad-hoc snapshot queries).
  Result<std::vector<Tuple>> ExecuteSnapshot(const std::string& sql);

  /// \brief Plan a query without registering it and describe the
  /// resulting pipeline (one step per line, plus the output schema).
  /// Accepts a bare SELECT/INSERT or an `EXPLAIN [ANALYZE|LINT|COST]
  /// <query>` statement; with ANALYZE, the plan lines of the matching
  /// *registered* query are annotated with its live counters; with LINT,
  /// the static analyzer's diagnostics come back as JSON (DESIGN.md
  /// §11); with COST, the static cost & state-bound report comes back as
  /// JSON (DESIGN.md §16).
  Result<std::string> Explain(const std::string& sql);

  /// \brief Run the static query analyzer over `sql` — one statement or
  /// a whole script (DDL statements lint clean) — without registering or
  /// executing anything. Diagnostics arrive in source order; use
  /// DiagnosticsToJson for the `EXPLAIN LINT` wire shape.
  Result<std::vector<Diagnostic>> Lint(const std::string& sql) const;

  /// \brief Run the cost model (DESIGN.md §16) over every SELECT /
  /// INSERT statement of `sql` — one statement or a whole script (DDL
  /// statements are skipped) — without registering anything. Referenced
  /// streams/tables must already exist in the catalog (execute the
  /// script's DDL first). Reports arrive in statement order, matching
  /// registered-query ids when the same script was executed.
  Result<std::vector<QueryCostReport>> AnalyzeCost(
      const std::string& sql) const;

  /// \brief Declare expected load statistics for `stream` (case-
  /// insensitive), feeding the cost model's cardinality and state-bound
  /// estimates. Undeclared streams use CostModelParams defaults.
  Status DeclareStreamStats(const std::string& stream, StreamStats stats);
  const StreamStats* FindStreamStats(
      const std::string& name) const override;

  /// \brief Point-in-time snapshot of every engine metric: per-stream
  /// traffic, per-operator tuple counts and operator-specific state
  /// gauges (retained history, window buffers, ...), and the engine
  /// clock. Keys: `stream.<name>.*` and `query<id>.op<k>.<label>.*`
  /// (DESIGN.md §9).
  MetricsSnapshot Metrics() const;

  /// \brief Receive every tuple appearing on `stream`.
  Status Subscribe(const std::string& stream, TupleCallback callback);

  // ---- data --------------------------------------------------------------

  /// \brief Append a tuple to a stream; drives all subscribed pipelines
  /// to completion before returning. With ingest on, every push enters
  /// the ingest pipeline, a push into a query's output stream included.
  Status Push(const std::string& stream, std::vector<Value> values,
              Timestamp ts);
  Status PushTuple(const std::string& stream, const Tuple& tuple) {
    return Offer(stream, tuple, /*log=*/true);
  }

  /// \brief The validated ingest options.
  const IngestOptions& ingest_options() const {
    return front_.ingest_options();
  }
  /// \brief True when an ingest pipeline sits ahead of the engine.
  bool ingest_enabled() const { return front_.ingest_enabled(); }
  /// \brief The ingest pipeline (null when disabled) — live stage gauges
  /// for tests and embedding layers.
  const IngestPipeline* ingest_pipeline() const { return front_.ingest(); }

  /// \brief Advance application time without a tuple: fires window
  /// expirations (active expiration) across all pipelines.
  Status AdvanceTime(Timestamp now) { return Tick(now, /*log=*/true); }

  Timestamp current_time() const { return clock_; }

  // ---- durability (DESIGN.md §10) ----------------------------------------

  /// \brief Write a versioned checkpoint of all engine state — stream
  /// counters/retention, table contents, and every stateful operator —
  /// to `<dir>/engine.ckpt` (atomic replace). When a WAL is enabled it
  /// is flushed first and then truncated to the records the checkpoint
  /// does not cover.
  Status Checkpoint(const std::string& dir);

  /// \brief Load the checkpoint in `dir` into this engine. The caller
  /// must first rebuild an identical topology (same DDL and query
  /// registrations in the same order); Restore validates names, schemas,
  /// and per-query operator shapes against the file *before* mutating
  /// anything, so a mismatched or corrupt checkpoint leaves the engine
  /// untouched.
  Status Restore(const std::string& dir);

  /// \brief Start logging every Push/AdvanceTime to `path` ahead of
  /// processing. If the file already holds records (pre-crash WAL), new
  /// appends continue after the last intact one; a torn tail is
  /// truncated (counted in `recovery_truncated_frames`).
  Status EnableWal(const std::string& path, WalOptions options = {});

  /// \brief Re-drive the engine from the WAL at `path`, skipping records
  /// already covered by the restored checkpoint and suppressing
  /// already-delivered emissions per `options`.
  Result<ReplayStats> ReplayWal(const std::string& path,
                                const ReplayOptions& options = {});

  /// \brief Crash recovery in one call: Restore(dir), replay
  /// `<dir>/wal.log`, and re-enable the WAL for new appends.
  Status RecoverFrom(const std::string& dir,
                     const ReplayOptions& options = {});

  WalWriter* wal() const { return front_.wal(); }

  // ---- catalog -----------------------------------------------------------

  Stream* FindStream(const std::string& name) const override;
  Table* FindTable(const std::string& name) const override;
  /// \brief Names of all registered streams (original case, catalog order).
  std::vector<std::string> StreamNames() const;
  const FunctionRegistry& registry() const override { return registry_; }
  FunctionRegistry* mutable_registry() { return &registry_; }
  Duration declared_disorder() const override {
    return front_.ingest_options().declared_disorder;
  }
  Duration ingest_lateness() const override {
    return front_.ingest_options().lateness_bound;
  }

 private:
  friend class FrontEnd<Engine, Stream>;

  Status ExecuteStatement(const Statement& stmt);
  Result<QueryInfo> RegisterParsed(const Statement& stmt);
  Result<std::string> ExplainParsed(const Statement& stmt, bool analyze);

  /// Replay the WAL chain `read` through the pipelines with duplicate
  /// suppression armed (engine_checkpoint.cc).
  Result<ReplayStats> ReplayMuted(const WalChainReadResult& read,
                                  const ReplayOptions& options);

  // The host side of the front end (core/front_end.h). Offer and Tick
  // apply the disorder policy and pass the input on, logged when `log`:
  // an input behind the engine clock is rejected; with ingest on, the
  // bar is the newest raw input instead, and a tuple may pass it when a
  // reorder stage takes disorder. DeliverTuple and DeliverHeartbeat take
  // ordered input into the pipelines (clock advance, dispatch).
  Status Offer(const std::string& stream, const Tuple& tuple, bool log);
  /// Offer's policy and hand-off, for a stream already found.
  Status OfferTo(Stream* s, const Tuple& tuple, bool log);
  Status Tick(Timestamp now, bool log);
  Status DeliverTuple(Stream* s, const Tuple& tuple);
  Status DeliverHeartbeat(Timestamp now);

  EngineOptions options_;
  FunctionRegistry registry_;
  // Name-keyed maps: lower-case keys, found by any spelling of a name.
  std::map<std::string, std::unique_ptr<Stream>, AsciiCaseLess> streams_;
  std::map<std::string, std::unique_ptr<Table>, AsciiCaseLess> tables_;
  std::map<std::string, StreamStats, AsciiCaseLess> stream_stats_;
  std::map<std::string, bool, AsciiCaseLess> derived_;  // query outputs
  std::vector<PlannedQuery> queries_;
  std::vector<std::unique_ptr<Operator>> sinks_;
  Timestamp clock_ = kMinTimestamp;
  int next_query_id_ = 1;

  // The WAL and ingest ahead of the pipelines (DESIGN.md §10, §15).
  FrontEnd<Engine, Stream> front_;
  Timestamp ingest_input_clock_ = kMinTimestamp;  // max ts offered to ingest

  Status init_error_ = Status::OK();  // invalid option, surfaced lazily

  // Checkpoint counters (core/engine_checkpoint.cc).
  uint64_t checkpoints_taken_ = 0;
  uint64_t last_checkpoint_bytes_ = 0;
  int64_t last_checkpoint_duration_us_ = 0;
};

}  // namespace eslev

#endif  // ESLEV_CORE_ENGINE_H_
