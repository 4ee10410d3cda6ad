#include "e19/harness/workloads.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <optional>

#include "core/engine.h"
#include "core/sharded_engine.h"
#include "e19/harness/host.h"
#include "serve/server.h"

namespace e19 {

using eslev::Duration;
using eslev::Milliseconds;
using eslev::Result;
using eslev::Seconds;
using eslev::Status;
using eslev::Timestamp;
using eslev::Tuple;
using eslev::Value;
namespace rfid = eslev::rfid;

namespace {

// ---- shared pieces ---------------------------------------------------------

constexpr const char* kDedupInsert = R"sql(
  INSERT INTO cleaned_readings
  SELECT * FROM readings AS r1
  WHERE NOT EXISTS
    (SELECT * FROM TABLE( readings OVER
        (RANGE 1 seconds PRECEDING CURRENT)) AS r2
     WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id))sql";

// Every tuple column after the timestamp-bearing rewrite by
// NormalizeUniqueTimestamps; the reference reads values, never indices
// of a schema it does not own.
const Value& Col(const Tuple& t, size_t i) { return t.values()[i]; }

Tuple Out(std::vector<Value> values, Timestamp ts) {
  return Tuple(nullptr, std::move(values), ts);
}

uint32_t SubSeed(uint32_t seed, uint32_t k) {
  return seed * 2654435761u + k * 40503u + 1;
}

// Pushes with a heartbeat every `hb_every` inputs (at the latest event
// time seen, so in-bound late arrivals stay acceptable) and a poll every
// `poll_every` inputs; 0 disables either.
void BuildSchedule(Workload* w, size_t hb_every, size_t poll_every) {
  Timestamp max_ts = eslev::kMinTimestamp;
  for (uint32_t i = 0; i < w->inputs.size(); ++i) {
    max_ts = std::max(max_ts, w->inputs[i].tuple.ts());
    w->schedule.push_back({Step::Kind::kPush, i, 0});
    if (hb_every != 0 && (i + 1) % hb_every == 0) {
      w->schedule.push_back({Step::Kind::kHeartbeat, i, max_ts});
    }
    if (poll_every != 0 && (i + 1) % poll_every == 0) {
      w->schedule.push_back({Step::Kind::kPoll, i, 0});
    }
  }
}

Timestamp LastTs(const Workload& w) {
  Timestamp last = eslev::kMinTimestamp;
  for (const auto& e : w.inputs) last = std::max(last, e.tuple.ts());
  return last;
}

void ExpectCount(Workload* w, const std::string& what, uint64_t got,
                 uint64_t want) {
  if (got != want) {
    w->reference_problems.push_back(
        what + ": reference has " + std::to_string(got) +
        " emissions, generator ground truth " + std::to_string(want));
  }
}

// ---- dedup_dense -----------------------------------------------------------

// Example 1 on one Engine over a clean, in-order, window-dense trace:
// E13's DenseDedupWorkload density, about 400 readings inside the 1 s
// window, so the NOT EXISTS scan and its predicate evaluation dominate.
// One extra copy per read instead of E13's five, with reads three times
// as often, keeps that density and makes every second input an
// emission, so a 0.13 s pass already has the 1000 latency samples p99
// needs, and a run has many short passes to find the undisturbed ones.
Workload DedupDense(uint32_t seed) {
  Workload w;
  w.name = "dedup_dense";
  w.rate = 15000;
  rfid::DuplicateWorkloadOptions o;
  o.num_distinct = 1000;
  o.duplicates_per_read = 1;
  o.inter_arrival = Milliseconds(5);
  o.duplicate_spread = Milliseconds(800);
  o.num_readers = 4;
  o.num_tags = 600;
  o.seed = SubSeed(seed, 1);
  rfid::Workload trace = rfid::MakeDuplicateWorkload(o);
  rfid::NormalizeUniqueTimestamps(&trace);
  w.inputs = std::move(trace.events);
  BuildSchedule(&w, 0, 0);
  w.final_time = LastTs(w) + Seconds(2);

  w.engine_statements = {
      "CREATE STREAM readings(reader_id, tag_id, read_time)",
      "CREATE STREAM cleaned_readings(reader_id, tag_id, read_time)",
      kDedupInsert};
  w.engine_output = "cleaned_readings";
  w.queries.push_back({w.engine_output, false, 0});
  w.layer_groups = {"exec.notexists"};

  // Reference: a reading survives iff its (reader, tag) key was not read
  // within the preceding second. Same-key readings are either one
  // logical read's copies (< 800 ms apart) or recurrences (>= 3 s).
  std::map<std::pair<std::string, std::string>, Timestamp> last_seen;
  Digest& d = w.expected[w.engine_output];
  for (uint32_t i = 0; i < w.inputs.size(); ++i) {
    const Tuple& t = w.inputs[i].tuple;
    const auto key = std::make_pair(Col(t, 0).string_value(),
                                    Col(t, 1).string_value());
    auto it = last_seen.find(key);
    if (it == last_seen.end() || t.ts() - it->second > Seconds(1)) {
      d.Add(t);
      w.completion.AddInput(t.ts(), i);
    }
    last_seen[key] = t.ts();
  }
  ExpectCount(&w, w.engine_output, d.count, trace.distinct_readings);
  return w;
}

// ---- sharded_fullpath ------------------------------------------------------

// The ROADMAP's full path: QueryServer over a 3-shard ShardedEngine with
// front-end ingest (reorder + cleaning) and the front-end WAL, on E17's
// noisy trace. Operator work per event is small, so the time goes to the
// sharded front end, the worker copies, the drain merge and fan-out.
Workload ShardedFullpath(uint32_t seed) {
  Workload w;
  w.name = "sharded_fullpath";
  w.rate = 95000;
  rfid::DuplicateWorkloadOptions o;
  o.num_distinct = 30000;
  o.duplicates_per_read = 0;  // the noise owns duplication
  o.inter_arrival = Milliseconds(100);
  o.num_readers = 4;
  o.num_tags = 100;
  o.seed = SubSeed(seed, 2);
  rfid::Workload clean = rfid::MakeDuplicateWorkload(o);
  rfid::NormalizeUniqueTimestamps(&clean);
  rfid::Workload noisy = clean;
  rfid::NoiseOptions noise;
  noise.max_shift = Milliseconds(400);
  noise.duplicate_rate = 1.0;  // every real read reaches min_read_count
  noise.duplicate_copies = 1;
  noise.spurious_rate = 0.25;
  noise.seed = SubSeed(seed, 3);
  rfid::InjectNoise(&noisy, noise);
  w.inputs = std::move(noisy.events);
  BuildSchedule(&w, 64, 256);
  w.final_time = LastTs(w) + Seconds(2);

  ServeSetup& s = w.serve_setup;
  s.shards = 3;
  s.ingest.lateness_bound = noise.max_shift;
  s.ingest.smoothing_window = Milliseconds(1);
  s.ingest.min_read_count = 2;
  s.wal = true;
  s.operator_statements = {
      "CREATE STREAM readings(reader_id, tag_id, read_time)",
      "CREATE STREAM cleaned_readings(reader_id, tag_id, read_time)",
      kDedupInsert};
  w.serve = true;
  w.layer_groups = {"exec.notexists", "ingest", "core.sharded",
                    "serve.outbox"};

  // Cleaning restores the clean trace exactly (every real read has two
  // copies, ghosts one), and the clean trace repeats a (reader, tag) key
  // only after 10 s, so cleaned_readings == the clean trace.
  for (size_t t = 0; t < o.num_readers; ++t) {
    const std::string tenant = "t" + std::to_string(t);
    s.tenants.push_back(tenant);
    s.registrations.push_back(
        {tenant, "by_reader",
         "SELECT * FROM cleaned_readings WHERE reader_id = 'rd" +
             std::to_string(t) + "'"});
    // Formatting variants of one canonical query: one shared pipeline.
    const std::string pad(t % 3 + 1, ' ');
    s.registrations.push_back(
        {tenant, "all_tags",
         "SELECT tag_id," + pad + "read_time FROM" + pad + "cleaned_readings"});
    w.queries.push_back({tenant + "/by_reader", false, 0});
    w.queries.push_back({tenant + "/all_tags", false, 0});
  }
  uint64_t cleaned = 0;
  for (const auto& e : clean.events) {
    const Tuple& t = e.tuple;
    const std::string& reader = Col(t, 0).string_value();
    const std::string tenant = "t" + reader.substr(2);
    w.expected[tenant + "/by_reader"].Add(t);
    const Tuple projected = Out({Col(t, 1), Col(t, 2)}, t.ts());
    for (const std::string& each : s.tenants) {
      w.expected[each + "/all_tags"].Add(projected);
    }
    ++cleaned;
  }
  ExpectCount(&w, "cleaned_readings", cleaned, clean.distinct_readings);

  // A result exists once the last real copy of its read has arrived;
  // ghosts (rewritten reader ids) complete nothing.
  std::map<Timestamp, std::string> real_reader;
  for (const auto& e : clean.events) {
    real_reader[e.tuple.ts()] = Col(e.tuple, 0).string_value();
  }
  for (uint32_t i = 0; i < w.inputs.size(); ++i) {
    const Tuple& t = w.inputs[i].tuple;
    auto it = real_reader.find(t.ts());
    if (it != real_reader.end() && it->second == Col(t, 0).string_value()) {
      w.completion.AddInput(t.ts(), i);
    }
  }
  return w;
}

// ---- tenant_cep ------------------------------------------------------------

constexpr Duration kQualityWindow = Seconds(1);
constexpr Duration kLabWindow = Seconds(1);

std::string QualityQuery(const std::string& mode, const std::string& pad) {
  return "SELECT C4.tagid," + pad + "C1.tagtime, C4.tagtime FROM C1, C2, C3, C4" +
         " WHERE SEQ(C1, C2, C3, C4) OVER [1" + pad + "SECONDS PRECEDING C4]" +
         " MODE " + mode +
         " AND C1.tagid = C2.tagid AND C2.tagid = C3.tagid" + pad +
         "AND C3.tagid = C4.tagid";
}

// Example 6 quality checks (many products in flight), the Figure 1
// packing trace (Examples 4 and 7) and Example 5's lab workflow, merged
// on one time base and served to 8 tenants by QueryServer over one
// Engine. SEQ candidate enumeration and serving fan-out dominate.
Workload TenantCep(uint32_t seed) {
  Workload w;
  w.name = "tenant_cep";
  w.rate = 20000;

  rfid::QualityCheckWorkloadOptions q;
  q.num_products = 1500;
  q.stage_delay = Milliseconds(200);
  q.product_interval = Milliseconds(10);
  q.drop_rate = 0.05;
  q.seed = SubSeed(seed, 4);
  rfid::Workload quality = rfid::MakeQualityCheckWorkload(q);
  const Duration span = static_cast<Duration>(q.num_products) *
                        q.product_interval;

  // Example 7's constants scaled from seconds to tenths of a second so
  // packing keeps pace with the quality line; cases never interleave
  // (case_delay < inter_case_gap), so each case is one star group.
  rfid::PackingWorkloadOptions p;
  p.num_cases = static_cast<size_t>(span / Milliseconds(540));
  p.max_intra_gap = Milliseconds(90);
  p.case_delay = Milliseconds(300);
  p.inter_case_gap = Milliseconds(400);
  p.seed = SubSeed(seed, 5);
  rfid::PackingWorkload packing = rfid::MakePackingWorkload(p);

  rfid::LabWorkflowWorkloadOptions l;
  l.num_rounds = static_cast<size_t>(span / Milliseconds(400));
  l.step_delay = Milliseconds(100);
  l.window = kLabWindow;
  l.round_gap = Milliseconds(50);
  l.seed = SubSeed(seed, 6);
  rfid::Workload lab = rfid::MakeLabWorkflowWorkload(l);

  rfid::Workload merged;
  for (auto* part : {&quality, static_cast<rfid::Workload*>(&packing), &lab}) {
    merged.events.insert(merged.events.end(), part->events.begin(),
                         part->events.end());
  }
  std::stable_sort(merged.events.begin(), merged.events.end(),
                   [](const rfid::TimedReading& a, const rfid::TimedReading& b) {
                     return a.tuple.ts() < b.tuple.ts();
                   });
  rfid::NormalizeUniqueTimestamps(&merged);
  w.inputs = std::move(merged.events);
  BuildSchedule(&w, 64, 64);
  w.final_time = LastTs(w) + Seconds(2);

  ServeSetup& s = w.serve_setup;
  for (const char* stream : {"C1", "C2", "C3", "C4", "R1", "R2"}) {
    s.operator_statements.push_back(std::string("CREATE STREAM ") + stream +
                                    "(readerid, tagid, tagtime)");
  }
  for (const char* stream : {"A1", "A2", "A3"}) {
    s.operator_statements.push_back(std::string("CREATE STREAM ") + stream +
                                    "(staffid, tagid, tagtime)");
  }
  w.serve = true;
  w.layer_groups = {"cep.seq", "cep.exseq", "serve.outbox"};
  for (int t = 0; t < 8; ++t) s.tenants.push_back("t" + std::to_string(t));
  for (int t = 0; t < 6; ++t) {
    const std::string pad(static_cast<size_t>(t % 3) + 1, ' ');
    s.registrations.push_back(
        {s.tenants[t], "quality", QualityQuery("CHRONICLE", pad)});
  }
  s.registrations.push_back({"t6", "recent", QualityQuery("RECENT", " ")});
  s.registrations.push_back(
      {"t6", "unrestricted", QualityQuery("UNRESTRICTED", " ")});
  s.registrations.push_back(
      {"t7", "packing",
       "SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime"
       " FROM R1, R2 WHERE SEQ(R1*, R2) MODE CHRONICLE"
       " AND R2.tagtime - LAST(R1*).tagtime <= 500 MILLISECONDS"
       " AND R1.tagtime - R1.previous.tagtime <= 100 MILLISECONDS"});
  s.registrations.push_back(
      {"t7", "lab",
       "SELECT A1.tagtime, A2.tagtime, A3.tagtime FROM A1, A2, A3"
       " WHERE EXCEPTION_SEQ(A1, A2, A3) OVER [1 SECONDS FOLLOWING A1]"});
  for (const Registration& r : s.registrations) {
    QuerySpec spec{r.tenant + "/" + r.name, r.name == "lab", kLabWindow};
    w.queries.push_back(spec);
  }

  // Reference, Example 6: one match per product seen at all four stages
  // (tag equality pairs a product only with itself; every product spans
  // less than the window), emitted at its C4 read.
  std::map<std::string, std::array<const Tuple*, 4>> stages;
  for (uint32_t i = 0; i < w.inputs.size(); ++i) {
    const auto& e = w.inputs[i];
    if (e.stream.size() == 2 && e.stream[0] == 'C') {
      const size_t stage = static_cast<size_t>(e.stream[1] - '1');
      stages[Col(e.tuple, 1).string_value()][stage] = &e.tuple;
      if (stage == 3) w.completion.AddInput(e.tuple.ts(), i);
    }
  }
  uint64_t completed = 0;
  for (const auto& [tag, slot] : stages) {
    if (std::any_of(slot.begin(), slot.end(),
                    [](const Tuple* t) { return t == nullptr; })) {
      continue;
    }
    const Tuple match =
        Out({Col(*slot[3], 1), Col(*slot[0], 2), Col(*slot[3], 2)},
            slot[3]->ts());
    for (int t = 0; t < 6; ++t) {
      w.expected["t" + std::to_string(t) + "/quality"].Add(match);
    }
    w.expected["t6/recent"].Add(match);
    w.expected["t6/unrestricted"].Add(match);
    ++completed;
  }
  ExpectCount(&w, "quality", completed, quality.expected_events);

  // Example 7: each case's items form one star group closed by its case
  // read.
  std::vector<const Tuple*> group;
  uint64_t cases = 0;
  for (uint32_t i = 0; i < w.inputs.size(); ++i) {
    const auto& e = w.inputs[i];
    if (e.stream == "R1") {
      group.push_back(&e.tuple);
    } else if (e.stream == "R2" && !group.empty()) {
      if (cases < packing.case_sizes.size() &&
          group.size() != packing.case_sizes[cases]) {
        w.reference_problems.push_back("packing: case " +
                                       std::to_string(cases) +
                                       " group size differs from ground truth");
      }
      w.expected["t7/packing"].Add(
          Out({Col(*group.front(), 2),
               Value::Int(static_cast<int64_t>(group.size())),
               Col(e.tuple, 1), Col(e.tuple, 2)},
              e.tuple.ts()));
      w.completion.AddInput(e.tuple.ts(), i);
      group.clear();
      ++cases;
    }
  }
  ExpectCount(&w, "packing", cases, packing.expected_events);

  // Example 5, CONSECUTIVE EXCEPTION_SEQ(A1, A2, A3) with a 1 s deadline
  // anchored at A1: wrong arrivals raise an alert at the offender (a
  // wrong-order round raises two: the abandoned partial, then the
  // offender as a level-0 start), and a partial past its deadline raises
  // one at the first A input or heartbeat later than the deadline.
  std::vector<const Tuple*> partial;
  std::optional<Timestamp> deadline;
  uint64_t alerts = 0;
  auto alert = [&](const Tuple* offender, size_t offender_pos) {
    std::vector<Value> values(3, Value::Null());
    Timestamp ts = 0;
    for (size_t i = 0; i < partial.size(); ++i) {
      values[i] = Col(*partial[i], 2);
      ts = std::max(ts, partial[i]->ts());
    }
    if (offender != nullptr) {
      values[offender_pos] = Col(*offender, 2);
      ts = std::max(ts, offender->ts());
    }
    w.expected["t7/lab"].Add(Out(std::move(values), ts));
    ++alerts;
  };
  auto expire = [&](Timestamp now, uint32_t pos) {
    w.completion.AddExpiryTrigger(now, pos);
    if (deadline && now > *deadline) {
      alert(nullptr, 0);
      partial.clear();
      deadline.reset();
    }
  };
  auto start_or_level_zero = [&](size_t port, const Tuple* t) {
    partial.clear();
    deadline.reset();
    if (port == 0) {
      partial.push_back(t);
      deadline = t->ts() + kLabWindow;
    } else {
      alert(t, port);
    }
  };
  for (const Step& step : w.schedule) {
    if (step.kind == Step::Kind::kHeartbeat) {
      expire(step.ts, step.input);
      continue;
    }
    if (step.kind != Step::Kind::kPush) continue;
    const auto& e = w.inputs[step.input];
    if (e.stream.size() != 2 || e.stream[0] != 'A') continue;
    const size_t port = static_cast<size_t>(e.stream[1] - '1');
    expire(e.tuple.ts(), step.input);
    if (port == partial.size()) {
      partial.push_back(&e.tuple);
      if (port == 0) deadline = e.tuple.ts() + kLabWindow;
      if (partial.size() == 3) {
        partial.clear();
        deadline.reset();
      }
    } else if (!partial.empty()) {
      alert(&e.tuple, port);
      start_or_level_zero(port, &e.tuple);
    } else {
      start_or_level_zero(port, &e.tuple);
    }
    // Violations are emitted at the offender's timestamp.
    w.completion.AddInput(e.tuple.ts(), step.input);
  }
  expire(w.final_time, static_cast<uint32_t>(w.inputs.size() - 1));
  if (alerts < lab.expected_exceptions) {
    w.reference_problems.push_back(
        "lab: reference raises " + std::to_string(alerts) +
        " alerts for " + std::to_string(lab.expected_exceptions) +
        " injected violations");
  }
  return w;
}

// ---- systems ---------------------------------------------------------------

class EngineSystem : public System {
 public:
  explicit EngineSystem(Tracer* tracer) : tracer_(tracer) {}

  Status Setup(const Workload& w, Consumer* consumer) {
    for (const std::string& sql : w.engine_statements) {
      ScopedSpan span(tracer_, Boundary::kPlanRegister);
      ESLEV_RETURN_NOT_OK(engine_.ExecuteScript(sql));
    }
    const int slot = consumer->SlotOf(w.engine_output);
    Tracer* tracer = tracer_;
    return engine_.Subscribe(
        w.engine_output, [tracer, consumer, slot](const Tuple& t) {
          ScopedSpan span(tracer, Boundary::kConsume);
          consumer->Deliver(slot, t);
        });
  }

  Status Push(const rfid::TimedReading& e) override {
    ScopedSpan span(tracer_, Boundary::kCorePush);
    return engine_.PushTuple(e.stream, e.tuple);
  }
  Status Heartbeat(Timestamp now) override {
    ScopedSpan span(tracer_, Boundary::kCoreHeartbeat);
    return engine_.AdvanceTime(now);
  }
  Status Poll() override { return Status::OK(); }
  Status Finish(Timestamp end) override { return Heartbeat(end); }
  Result<eslev::MetricsSnapshot> Metrics() override {
    return engine_.Metrics();
  }

 private:
  Tracer* tracer_;
  eslev::Engine engine_;
};

class ServeSystem : public System {
 public:
  ServeSystem(Tracer* tracer, Consumer* consumer)
      : tracer_(tracer), consumer_(consumer) {}

  ~ServeSystem() override {
    server_.reset();
    timed_.reset();
    host_.reset();
    sharded_.reset();
    engine_.reset();
    if (!wal_path_.empty()) {
      std::error_code ec;
      std::filesystem::remove(wal_path_, ec);
    }
  }

  Status Setup(const Workload& w, const SystemOptions& options) {
    const ServeSetup& s = w.serve_setup;
    if (s.shards > 0 && !options.single_engine) {
      eslev::ShardedEngineOptions o;
      o.num_shards = s.shards;
      o.engine.ingest = s.ingest;
      sharded_ = std::make_unique<eslev::ShardedEngine>(o);
      host_ = ServeOverSharded(sharded_.get());
    } else {
      eslev::EngineOptions o;
      o.ingest = s.ingest;
      engine_ = std::make_unique<eslev::Engine>(o);
      host_ = ServeOverEngine(engine_.get());
    }
    eslev::ServeHost* host = host_.get();
    if (tracer_ != nullptr) {
      timed_ = std::make_unique<TimedHost>(host, tracer_);
      host = timed_.get();
    }
    server_ = std::make_unique<eslev::QueryServer>(host);
    for (const std::string& sql : s.operator_statements) {
      ESLEV_RETURN_NOT_OK(server_->ExecuteScript(sql));
    }
    if (s.wal) {
      wal_path_ = options.workdir + "/wal-" + std::to_string(options.instance) +
                  ".log";
      std::error_code ec;
      std::filesystem::remove(wal_path_, ec);
      ESLEV_RETURN_NOT_OK(server_->EnableWal(wal_path_));
    }
    // Admission still prices every registration; Example 7's open star
    // group has no static bound, so tenants accept unbounded queries.
    eslev::TenantQuotas quotas;
    quotas.allow_unbounded_state = true;
    for (const std::string& name : s.tenants) {
      ESLEV_ASSIGN_OR_RETURN(eslev::Session session,
                             server_->OpenSession(name, quotas));
      auto tenant = std::make_unique<Tenant>();
      tenant->session = session;
      Tenant* raw = tenant.get();
      Tracer* tracer = tracer_;
      Consumer* consumer = consumer_;
      tenant->drain = [tracer, consumer, raw](const eslev::ServedEmission& e) {
        ScopedSpan span(tracer, Boundary::kConsume);
        auto it = raw->slots.find(e.query);
        consumer->Deliver(it == raw->slots.end() ? -1 : it->second, e.tuple);
      };
      by_name_[name] = raw;
      tenants_.push_back(std::move(tenant));
    }
    for (const Registration& r : s.registrations) {
      Tenant* tenant = by_name_.at(r.tenant);
      ScopedSpan span(tracer_, Boundary::kServeRegister);
      ESLEV_RETURN_NOT_OK(tenant->session.Register(r.name, r.sql).status());
      tenant->slots[r.name] = consumer_->SlotOf(r.tenant + "/" + r.name);
    }
    return Status::OK();
  }

  Status Push(const rfid::TimedReading& e) override {
    ScopedSpan span(tracer_, Boundary::kServePush);
    return server_->PushTuple(e.stream, e.tuple);
  }
  Status Heartbeat(Timestamp now) override {
    ScopedSpan span(tracer_, Boundary::kServeAdvance);
    return server_->AdvanceTime(now);
  }
  Status Poll() override {
    {
      ScopedSpan span(tracer_, Boundary::kServePoll);
      ESLEV_RETURN_NOT_OK(server_->Poll().status());
    }
    for (auto& tenant : tenants_) {
      ScopedSpan span(tracer_, Boundary::kSessionDrain);
      ESLEV_RETURN_NOT_OK(tenant->session.Drain(tenant->drain).status());
    }
    return Status::OK();
  }
  Status Finish(Timestamp end) override {
    ESLEV_RETURN_NOT_OK(Heartbeat(end));
    return Poll();
  }
  Result<eslev::MetricsSnapshot> Metrics() override {
    return server_->Metrics();
  }
  std::vector<uint64_t> ShardCounts() const override {
    return sharded_ ? sharded_->shard_tuple_counts() : std::vector<uint64_t>{};
  }
  size_t Pipelines() const override { return server_->plan_cache().size(); }
  std::string WalPath() const override { return wal_path_; }
  Status Checkpoint(const std::string& dir) override {
    ScopedSpan span(tracer_, Boundary::kCheckpoint);
    return server_->Checkpoint(dir);
  }

 private:
  struct Tenant {
    eslev::Session session;
    std::map<std::string, int> slots;  // query name -> consumer slot
    std::function<void(const eslev::ServedEmission&)> drain;
  };

  Tracer* tracer_;
  Consumer* consumer_;
  std::unique_ptr<eslev::Engine> engine_;
  std::unique_ptr<eslev::ShardedEngine> sharded_;
  std::unique_ptr<eslev::ServeHost> host_;
  std::unique_ptr<TimedHost> timed_;
  std::unique_ptr<eslev::QueryServer> server_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::map<std::string, Tenant*> by_name_;
  std::string wal_path_;
};

}  // namespace

Result<Workload> MakeWorkload(const std::string& name, uint32_t seed) {
  Workload w;
  if (name == "dedup_dense") {
    w = DedupDense(seed);
  } else if (name == "sharded_fullpath") {
    w = ShardedFullpath(seed);
  } else if (name == "tenant_cep") {
    w = TenantCep(seed);
  } else {
    return Status::Invalid("unknown workload '" + name + "'");
  }
  w.fingerprint = FingerprintTrace(w.inputs);
  return w;
}

Consumer::Consumer(const std::vector<QuerySpec>& queries,
                   const CompletionIndex* completion)
    : completion_(completion) {
  for (const QuerySpec& q : queries) {
    index_[q.key] = static_cast<int>(slots_.size());
    slots_.push_back({q, Digest{}});
  }
}

int Consumer::SlotOf(const std::string& key) const {
  auto it = index_.find(key);
  return it == index_.end() ? -1 : it->second;
}

void Consumer::StartLatency(int64_t t0_ns, double period_ns,
                            std::vector<int64_t>* samples) {
  t0_ns_ = t0_ns;
  period_ns_ = period_ns;
  samples_ = samples;
}

std::optional<uint32_t> CompletingInput(const QuerySpec& query,
                                        const CompletionIndex& completion,
                                        const Tuple& tuple) {
  // The lab trace never repeats A1 or A2 inside a round, the one other
  // way an alert gets this shape.
  if (query.exception_seq && tuple.size() == 3 &&
      !tuple.values()[0].is_null() && tuple.values()[2].is_null()) {
    return completion.FirstAfter(tuple.values()[0].time_value() +
                                 query.window);
  }
  return completion.ByTimestamp(tuple.ts());
}

void Consumer::Deliver(int slot, const Tuple& tuple) {
  if (slot < 0) {
    unknown_.Add(tuple);
    return;
  }
  Slot& s = slots_[static_cast<size_t>(slot)];
  s.digest.Add(tuple);
  if (samples_ == nullptr) return;
  const std::optional<uint32_t> input =
      CompletingInput(s.spec, *completion_, tuple);
  if (!input) {
    ++unmapped_;
    return;
  }
  const int64_t due =
      t0_ns_ + static_cast<int64_t>(static_cast<double>(*input) * period_ns_);
  samples_->push_back(NowNs() - due);
}

Digests Consumer::digests() const {
  Digests out;
  for (const Slot& s : slots_) out[s.spec.key] = s.digest;
  if (unknown_.count != 0) out["?unknown"] = unknown_;
  return out;
}

Status System::Checkpoint(const std::string&) {
  return Status::NotImplemented("this host takes no checkpoint");
}

Result<std::unique_ptr<System>> BuildSystem(const Workload& workload,
                                            Consumer* consumer,
                                            const SystemOptions& options) {
  if (!workload.serve) {
    auto system = std::make_unique<EngineSystem>(options.tracer);
    ESLEV_RETURN_NOT_OK(system->Setup(workload, consumer));
    return std::unique_ptr<System>(std::move(system));
  }
  auto system = std::make_unique<ServeSystem>(options.tracer, consumer);
  ESLEV_RETURN_NOT_OK(system->Setup(workload, options));
  return std::unique_ptr<System>(std::move(system));
}

}  // namespace e19
