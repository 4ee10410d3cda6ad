#include "core/sharded_engine.h"

#include <algorithm>

#include "common/string_util.h"
#include "plan/partitioning.h"
#include "sql/parser.h"

namespace eslev {

ShardedEngine::ShardedEngine(ShardedEngineOptions options)
    : options_(options), front_(this, options.engine.ingest) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  init_error_ = front_.init_status();
  // Ingest runs once, in the front end ahead of hash partitioning
  // (per-shard reordering could not restore cross-shard input order, and
  // the front-end WAL must keep raw arrival order). Shard engines are
  // pinned to ingest-disabled below.
  EngineOptions shard_options = options_.engine;
  shard_options.ingest = IngestOptions{};
  routing_.num_shards = options_.num_shards;
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->engine = std::make_unique<Engine>(shard_options);
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { WorkerLoop(s); });
  }
}

ShardedEngine::~ShardedEngine() {
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ShardedEngine::WorkerLoop(Shard* shard) {
  std::vector<Item> batch;
  Engine& engine = *shard->engine;
  // Queue order is the shard's serialization order.
  const auto push = [&](const std::string& stream, const Tuple& tuple) {
    Status st = ApplyShardTuple(engine, stream, tuple);
    if (!st.ok()) RecordError(shard, st);
  };
  while (shard->queue.PopAll(&batch)) {
    for (Item& item : batch) {
      switch (item.kind) {
        case Item::Kind::kTuple:
          push(*item.stream, item.tuple);
          break;
        case Item::Kind::kHeartbeat: {
          Status st = ApplyShardHeartbeat(engine, item.ts);
          if (!st.ok()) RecordError(shard, st);
          break;
        }
        case Item::Kind::kCommand: {
          Status st = item.command(engine);
          if (item.done != nullptr) item.done->set_value(st);
          break;
        }
      }
    }
    batch.clear();
  }
}

void ShardedEngine::RecordError(Shard* shard, const Status& status) {
  std::lock_guard<std::mutex> lock(shard->err_mu);
  if (shard->first_error.ok()) shard->first_error = status;
}

Status ShardedEngine::CheckAlive(size_t shard) const {
  if (!shards_[shard]->alive.load(std::memory_order_acquire)) {
    return Status::ExecutionError(
        "shard " + std::to_string(shard) +
        " worker is dead (promote its standby or heal before this call)");
  }
  return Status::OK();
}

Status ShardedEngine::CheckAllAlive() const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    ESLEV_RETURN_NOT_OK(CheckAlive(i));
  }
  return Status::OK();
}

Status ShardedEngine::RunOnShard(size_t shard,
                                 const std::function<Status(Engine&)>& fn) {
  // A dead shard's queue is closed: a command pushed there is dropped and
  // its promise never resolves, so fail fast instead of hanging.
  ESLEV_RETURN_NOT_OK(CheckAlive(shard));
  std::promise<Status> done;
  std::future<Status> future = done.get_future();
  Item item;
  item.kind = Item::Kind::kCommand;
  item.command = fn;
  item.done = &done;
  shards_[shard]->queue.PushControl(std::move(item));
  return future.get();
}

Status ShardedEngine::RunOnAllShards(
    const std::function<Status(size_t, Engine&)>& fn) {
  ESLEV_RETURN_NOT_OK(CheckAllAlive());
  std::vector<std::promise<Status>> done(shards_.size());
  std::vector<std::future<Status>> futures;
  futures.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    futures.push_back(done[i].get_future());
    Item item;
    item.kind = Item::Kind::kCommand;
    // `fn` outlives the command: every future is awaited below.
    item.command = [&fn, i](Engine& engine) { return fn(i, engine); };
    item.done = &done[i];
    shards_[i]->queue.PushControl(std::move(item));
  }
  Status first = Status::OK();
  for (auto& f : futures) {
    Status st = f.get();
    if (first.ok() && !st.ok()) first = st;
  }
  return first;
}

Status ShardedEngine::RefreshRoutes() {
  // Read shard 0's catalog on its worker thread; all shards are in
  // lockstep, so any shard's view is authoritative.
  std::vector<std::pair<std::string, SchemaPtr>> streams;
  ESLEV_RETURN_NOT_OK(RunOnShard(0, [&](Engine& engine) {
    for (const std::string& name : engine.StreamNames()) {
      streams.emplace_back(name, engine.FindStream(name)->schema());
    }
    return Status::OK();
  }));
  std::unique_lock<std::shared_mutex> lock(routes_mu_);
  for (auto& [name, schema] : streams) {
    const std::string key = AsciiToLower(name);
    if (routing_.routes.count(key)) continue;
    StreamRoute route;
    route.name = name;
    route.schema = schema;
    route.key_index = DefaultPartitionKeyIndex(schema);
    routing_.routes.emplace(key, std::move(route));
  }
  return Status::OK();
}

Status ShardedEngine::ExecuteScript(const std::string& sql) {
  ESLEV_RETURN_NOT_OK(init_error_);
  ESLEV_RETURN_NOT_OK(Flush());
  ESLEV_RETURN_NOT_OK(RunOnAllShards(
      [&sql](size_t, Engine& engine) { return engine.ExecuteScript(sql); }));
  return RefreshRoutes();
}

Result<QueryInfo> ShardedEngine::RegisterQuery(const std::string& sql) {
  ESLEV_RETURN_NOT_OK(init_error_);
  ESLEV_RETURN_NOT_OK(Flush());
  std::mutex mu;
  std::vector<QueryInfo> infos;
  ESLEV_RETURN_NOT_OK(RunOnAllShards([&](size_t, Engine& engine) {
    ESLEV_ASSIGN_OR_RETURN(QueryInfo info, engine.RegisterQuery(sql));
    std::lock_guard<std::mutex> lock(mu);
    infos.push_back(info);
    return Status::OK();
  }));
  for (const QueryInfo& info : infos) {
    if (info.id != infos[0].id ||
        info.output_stream != infos[0].output_stream ||
        info.output_table != infos[0].output_table) {
      return Status::ExecutionError(
          "shard engines diverged while registering a query (run all setup "
          "through ShardedEngine, not on individual shards)");
    }
  }
  ESLEV_RETURN_NOT_OK(RefreshRoutes());
  return infos[0];
}

Status ShardedEngine::UnregisterQuery(int id) {
  ESLEV_RETURN_NOT_OK(init_error_);
  ESLEV_RETURN_NOT_OK(Flush());
  ESLEV_RETURN_NOT_OK(RunOnAllShards(
      [id](size_t, Engine& engine) { return engine.UnregisterQuery(id); }));
  return PruneDeadRoutes();
}

Status ShardedEngine::SetNextQueryId(int id) {
  ESLEV_RETURN_NOT_OK(init_error_);
  return RunOnAllShards(
      [id](size_t, Engine& engine) { return engine.SetNextQueryId(id); });
}

Status ShardedEngine::PruneDeadRoutes() {
  std::vector<std::string> names;
  ESLEV_RETURN_NOT_OK(RunOnShard(0, [&names](Engine& engine) {
    names = engine.StreamNames();
    return Status::OK();
  }));
  std::map<std::string, bool> live;
  for (const std::string& name : names) live[AsciiToLower(name)] = true;
  std::unique_lock<std::shared_mutex> lock(routes_mu_);
  auto& routes = routing_.routes;
  for (auto it = routes.begin(); it != routes.end();) {
    it = live.count(it->first) ? std::next(it) : routes.erase(it);
  }
  std::lock_guard<std::mutex> ingest_lock(ingest_mu_);
  front_.RebindPorts(
      [this](const std::string& key) { return routing_.Find(key); });
  return Status::OK();
}

Status ShardedEngine::Subscribe(const std::string& stream,
                                TupleCallback callback) {
  ESLEV_RETURN_NOT_OK(Flush());
  const size_t sub_id = callbacks_.size();
  callbacks_.push_back(std::move(callback));
  Status st = Status::OK();
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard* shard = shards_[i].get();
    Status s = RunOnShard(i, [shard, sub_id, stream](Engine& engine) {
      return engine.Subscribe(
          stream, [shard, sub_id](const Tuple& t) { shard->Deliver(sub_id, t); });
    });
    if (st.ok() && !s.ok()) st = s;
  }
  return st;
}

Status ShardedEngine::SetPartitionKey(const std::string& stream,
                                      const std::string& column) {
  std::unique_lock<std::shared_mutex> lock(routes_mu_);
  auto it = routing_.routes.find(stream);
  if (it == routing_.routes.end()) {
    return Status::NotFound("stream not found: " + stream);
  }
  const SchemaPtr& schema = it->second.schema;
  for (size_t i = 0; i < schema->num_fields(); ++i) {
    if (AsciiToLower(schema->field(i).name) == AsciiToLower(column)) {
      it->second.key_index = i;
      it->second.single_shard = false;
      return Status::OK();
    }
  }
  return Status::NotFound("stream '" + stream + "' has no column '" + column +
                          "'");
}

Status ShardedEngine::SetSingleShard(const std::string& stream) {
  std::unique_lock<std::shared_mutex> lock(routes_mu_);
  auto it = routing_.routes.find(stream);
  if (it == routing_.routes.end()) {
    return Status::NotFound("stream not found: " + stream);
  }
  it->second.single_shard = true;
  return Status::OK();
}

Result<std::string> ShardedEngine::Explain(const std::string& sql) {
  // EXPLAIN ANALYZE shows every shard's counters; plain EXPLAIN and
  // EXPLAIN LINT run once on shard 0 (all shards hold identical plans
  // and catalogs, so the lint verdict is shard-independent).
  bool analyze = false;
  {
    auto stmt = ParseStatement(sql);
    if (stmt.ok() && (*stmt)->kind == StatementKind::kExplain) {
      analyze = static_cast<const ExplainStmt&>(**stmt).mode ==
                ExplainMode::kAnalyze;
    }
  }
  if (!analyze) {
    Result<std::string> out = Status::ExecutionError("explain did not run");
    ESLEV_RETURN_NOT_OK(RunOnShard(0, [&](Engine& engine) {
      out = engine.Explain(sql);
      return Status::OK();
    }));
    return out;
  }
  std::string combined;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Result<std::string> out = Status::ExecutionError("explain did not run");
    ESLEV_RETURN_NOT_OK(RunOnShard(i, [&](Engine& engine) {
      out = engine.Explain(sql);
      return Status::OK();
    }));
    ESLEV_RETURN_NOT_OK(out.status());
    combined += "-- shard " + std::to_string(i) + " --\n";
    combined += *out;
    if (i + 1 < shards_.size()) combined += "\n";
  }
  return combined;
}

Status ShardedEngine::Push(const std::string& stream,
                           std::vector<Value> values, Timestamp ts) {
  std::shared_lock<std::shared_mutex> lock(routes_mu_);
  const StreamRoute* route = routing_.Find(stream);
  if (route == nullptr) {
    return Status::NotFound("stream not found: " + stream);
  }
  ESLEV_ASSIGN_OR_RETURN(Tuple tuple,
                         MakeTuple(route->schema, std::move(values), ts));
  return OfferRoute(route, tuple, /*log=*/true);
}

Status ShardedEngine::PushTuple(const std::string& stream,
                                const Tuple& tuple) {
  return Offer(stream, tuple, /*log=*/true);
}

template <typename Fn>
Status ShardedEngine::WithFrontEnd(bool log, Fn&& fn) {
  // Append + enqueue under one mutex: the WAL's total order is then a
  // linearization consistent with the shard's queue order, and replaying
  // the log front to back reproduces the identical per-shard history.
  std::unique_lock<std::mutex> wal_lock(wal_mu_, std::defer_lock);
  log = log && wal_enabled_.load(std::memory_order_acquire);
  if (log) wal_lock.lock();
  std::unique_lock<std::mutex> ingest_lock(ingest_mu_, std::defer_lock);
  if (front_.ingest_enabled()) ingest_lock.lock();
  return fn(log);
}

Status ShardedEngine::Offer(const std::string& stream, const Tuple& tuple,
                            bool log) {
  std::shared_lock<std::shared_mutex> lock(routes_mu_);
  const StreamRoute* route = routing_.Find(stream);
  if (route == nullptr) {
    return Status::NotFound("stream not found: " + stream);
  }
  return OfferRoute(route, tuple, log);
}

Status ShardedEngine::OfferRoute(const StreamRoute* route, const Tuple& tuple,
                                 bool log) {
  ESLEV_RETURN_NOT_OK(init_error_);
  ESLEV_RETURN_NOT_OK(routing_.CheckKey(*route, tuple));
  return WithFrontEnd(log, [&](bool logged) {
    return front_.Push(route, route->name, tuple, logged);
  });
}

Status ShardedEngine::Tick(Timestamp now, bool log) {
  return WithFrontEnd(
      log, [&](bool logged) { return front_.Tick(now, logged); });
}

Status ShardedEngine::DeliverTuple(const StreamRoute* route, Tuple tuple) {
  const size_t shard = routing_.ShardOf(*route, tuple);
  EnqueueRouted(shard, &route->name, std::move(tuple));
  return Status::OK();
}

Status ShardedEngine::DeliverHeartbeat(Timestamp now) {
  ingest_fanned_hb_.store(now, std::memory_order_release);
  FanHeartbeat(now);
  return Status::OK();
}

void ShardedEngine::EnqueueRouted(size_t shard, const std::string* stream,
                                  Tuple tuple) {
  shards_[shard]->tuples_routed.fetch_add(1, std::memory_order_relaxed);
  Item item;
  item.kind = Item::Kind::kTuple;
  item.stream = stream;  // stable: route nodes are never moved
  item.tuple = std::move(tuple);
  shards_[shard]->queue.Push(std::move(item));
}

void ShardedEngine::FanHeartbeat(Timestamp now) {
  for (auto& shard : shards_) {
    Item item;
    item.kind = Item::Kind::kHeartbeat;
    item.ts = now;
    shard->queue.PushControl(std::move(item));
  }
}

int ShardedEngine::RegisterProducer() { return watermark_.RegisterProducer(); }

Status ShardedEngine::AdvanceProducer(int id, Timestamp now) {
  ESLEV_RETURN_NOT_OK(init_error_);
  std::optional<Timestamp> low = watermark_.Advance(id, now);
  if (!low.has_value()) return Status::OK();  // watermark did not move
  // Heartbeats drive active expiration, so they must be replayable: the
  // raw tick is logged ordered with the tuple appends.
  return Tick(*low, /*log=*/true);
}

Status ShardedEngine::AdvanceTime(Timestamp now) {
  int id;
  {
    std::lock_guard<std::mutex> lock(implicit_producer_mu_);
    if (implicit_producer_ < 0) {
      implicit_producer_ = watermark_.RegisterProducer();
    }
    id = implicit_producer_;
  }
  return AdvanceProducer(id, now);
}

Status ShardedEngine::Flush() {
  for (auto& shard : shards_) shard->queue.WaitIdle();
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->err_mu);
    if (!shard->first_error.ok()) return shard->first_error;
  }
  return Status::OK();
}

size_t ShardedEngine::DrainOutputs() {
  // A consumer sees results only when it drains, so a drain is where
  // queued input must start moving.
  for (auto& shard : shards_) shard->queue.Publish();
  std::vector<Emission> merged;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->out_mu);
    if (merged.empty()) {
      merged = std::move(shard->outbox);
    } else {
      merged.insert(merged.end(),
                    std::make_move_iterator(shard->outbox.begin()),
                    std::make_move_iterator(shard->outbox.end()));
    }
    shard->outbox.clear();
  }
  // Per-shard emission order is already timestamp-nondecreasing; the
  // global merge orders across shards by time, breaking ties by shard
  // then per-shard sequence (deterministic for a fixed routing). Sorting
  // an index permutation keeps the pre-merge position visible, so the
  // reorder distance (|sorted position - arrival position|) can be
  // recorded per emission.
  std::vector<size_t> order(merged.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t ia, size_t ib) {
    const Emission& a = merged[ia];
    const Emission& b = merged[ib];
    if (a.ts != b.ts) return a.ts < b.ts;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.seq < b.seq;
  });
  for (size_t i = 0; i < order.size(); ++i) {
    const size_t from = order[i];
    drain_reorder_distance_.Observe(from > i ? from - i : i - from);
    const Emission& e = merged[from];
    callbacks_[e.sub](e.tuple);
  }
  return merged.size();
}

Result<std::vector<Tuple>> ShardedEngine::ExecuteSnapshot(
    const std::string& sql) {
  ESLEV_RETURN_NOT_OK(CheckAllAlive());
  ESLEV_RETURN_NOT_OK(Flush());
  std::vector<std::vector<Tuple>> per_shard(shards_.size());
  ESLEV_RETURN_NOT_OK(RunOnAllShards([&](size_t i, Engine& engine) {
    ESLEV_ASSIGN_OR_RETURN(per_shard[i], engine.ExecuteSnapshot(sql));
    return Status::OK();
  }));
  std::vector<Tuple> merged;
  for (auto& rows : per_shard) {
    merged.insert(merged.end(), std::make_move_iterator(rows.begin()),
                  std::make_move_iterator(rows.end()));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Tuple& a, const Tuple& b) { return a.ts() < b.ts(); });
  return merged;
}

ShardRouting ShardedEngine::routing() const {
  std::shared_lock<std::shared_mutex> lock(routes_mu_);
  return routing_;
}

std::vector<uint64_t> ShardedEngine::shard_tuple_counts() const {
  std::vector<uint64_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    counts.push_back(shard->tuples_routed.load(std::memory_order_relaxed));
  }
  return counts;
}

Result<std::vector<Timestamp>> ShardedEngine::shard_clocks() {
  std::vector<Timestamp> clocks(shards_.size(), kMinTimestamp);
  ESLEV_RETURN_NOT_OK(RunOnAllShards([&clocks](size_t i, Engine& engine) {
    clocks[i] = engine.current_time();
    return Status::OK();
  }));
  return clocks;
}

Result<MetricsSnapshot> ShardedEngine::Metrics() {
  MetricsSnapshot snap;
  // Sharded-runtime gauges first: the round trips below wake every
  // shard, which then drains its mailbox.
  for (size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "sharded.shard" + std::to_string(i) + ".";
    snap.gauges[prefix + "queue_depth"] =
        static_cast<int64_t>(shards_[i]->queue.ApproxSize());
    snap.counters[prefix + "wakeups"] = shards_[i]->queue.wakeups();
    snap.counters[prefix + "tuples_routed"] =
        shards_[i]->tuples_routed.load(std::memory_order_relaxed);
    snap.gauges[prefix + "alive"] =
        shards_[i]->alive.load(std::memory_order_acquire) ? 1 : 0;
  }
  // Per-shard engine metrics, read on each worker thread (serialized
  // against that shard's processing). Dead shards (killed worker awaiting
  // promotion) are skipped rather than failing the whole snapshot.
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i]->alive.load(std::memory_order_acquire)) continue;
    MetricsSnapshot shard_snap;
    ESLEV_RETURN_NOT_OK(RunOnShard(i, [&shard_snap](Engine& engine) {
      shard_snap = engine.Metrics();
      return Status::OK();
    }));
    snap.Merge("shard" + std::to_string(i) + ".", shard_snap);
  }
  snap.gauges["sharded.watermark.low"] =
      static_cast<int64_t>(watermark_.low_watermark());
  snap.gauges["sharded.watermark.max_producer"] =
      static_cast<int64_t>(watermark_.max_producer_clock());
  snap.gauges["sharded.watermark.lag"] =
      static_cast<int64_t>(watermark_lag());
  snap.histograms["sharded.drain.reorder_distance"] =
      drain_reorder_distance_.Snapshot();
  // Front-end ingest (DESIGN.md §15) and durability (DESIGN.md §10),
  // read under the locks of a logged call.
  MetricsSnapshot front;
  (void)WithFrontEnd(/*log=*/true, [&](bool) {
    front_.AppendMetrics(&front);
    return Status::OK();
  });
  if (front_.ingest_enabled()) {
    front.gauges["ingest.fanned_hb"] =
        static_cast<int64_t>(ingest_fanned_hb_.load(std::memory_order_acquire));
  }
  front.counters["recovery.checkpoints"] =
      checkpoints_taken_.load(std::memory_order_relaxed);
  front.counters["recovery.replay_outputs_discarded"] =
      replay_outputs_discarded_.load(std::memory_order_relaxed);
  front.gauges["recovery.last_checkpoint_bytes"] = static_cast<int64_t>(
      last_checkpoint_bytes_.load(std::memory_order_relaxed));
  front.gauges["recovery.last_checkpoint_duration_us"] =
      last_checkpoint_duration_us_.load(std::memory_order_relaxed);
  snap.Merge("sharded.", front);
  return snap;
}

}  // namespace eslev
