// Multi-tenant serving differential proof (DESIGN.md §17): on seeded
// random traces, every (tenant, query) registered through QueryServer
// must receive output byte-identical to a dedicated single-tenant
// Engine running the same query alone — across shared-plan-cache
// on/off, Engine and ShardedEngine hosts (each sharded run at a route
// batch size drawn from 1/7/64), queries registered mid-stream and, for
// the single-engine host, across a crash with checkpoint +
// WAL recovery of the session registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "serve/server.h"
#include "tests/property/differential_harness.h"

namespace eslev {
namespace {

constexpr char kDdl[] = R"sql(
  CREATE STREAM R1(readerid, tagid, tagtime);
  CREATE STREAM R2(readerid, tagid, tagtime);
)sql";

/// One tenant registration in the serve run. `register_at` is the trace
/// index before which the query is registered (0 = before any event;
/// only stateless queries register mid-stream, so the dedicated
/// reference over the trace suffix is exact).
struct Registration {
  std::string tenant;
  std::string name;
  std::string sql;
  size_t register_at = 0;
};

// Overlapping workload: tenants acme and globex share two canonical
// queries (whitespace variants), initech runs its own; one stateless
// filter joins mid-stream.
std::vector<Registration> Workload() {
  return {
      {"acme", "filter_x", "SELECT * FROM R1 WHERE R1.tagid = 'tag1'", 0},
      {"globex", "same_filter",
       "select * from R1 where R1.tagid = 'tag1'", 0},
      {"acme", "pairs",
       "SELECT R1.tagid, R2.tagtime FROM R1, R2 WHERE SEQ(R1, R2) OVER "
       "[10 SECONDS PRECEDING R2] AND R1.tagid = R2.tagid",
       0},
      {"globex", "pairs_too",
       "SELECT R1.tagid, R2.tagtime FROM R1, R2 WHERE SEQ(R1, R2) OVER "
       "[ 10 SECONDS PRECEDING R2 ] AND R1.tagid = R2.tagid",
       0},
      {"initech", "r2_only", "SELECT * FROM R2 WHERE R2.tagid = 'tag2'", 0},
      {"initech", "late_filter",
       "SELECT * FROM R1 WHERE R1.tagid = 'tag0'", 100},
  };
}

/// Dedicated single-tenant reference: one Engine, one query, the trace
/// suffix from `from_index` on, sorted.
Rows RunDedicated(const std::string& sql, const Trace& events,
                  size_t from_index) {
  Scenario s;
  s.ddl = kDdl;
  s.query = sql;
  return Sorted(RunEngine(
      s, Trace(events.begin() + static_cast<std::ptrdiff_t>(from_index),
               events.end())));
}

using ServedOutputs = std::map<std::pair<std::string, std::string>,
                              std::vector<std::string>>;

void DrainInto(QueryServer& server, const std::vector<Registration>& regs,
               ServedOutputs* out) {
  std::vector<std::string> tenants;
  for (const Registration& r : regs) tenants.push_back(r.tenant);
  std::sort(tenants.begin(), tenants.end());
  tenants.erase(std::unique(tenants.begin(), tenants.end()), tenants.end());
  for (const std::string& tenant : tenants) {
    auto session = server.AttachSession(tenant);
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE(session
                    ->Drain([&](const ServedEmission& e) {
                      (*out)[{tenant, e.query}].push_back(e.tuple.ToString());
                    })
                    .ok());
  }
}

/// Serve run over `host`; registers the workload (respecting
/// register_at), pushes the trace, drains per tenant.
void RunServed(ServeHost* host, bool share, const Trace& events,
               const std::vector<Registration>& regs, ServedOutputs* out) {
  QueryServerOptions options;
  options.share_plans = share;
  QueryServer server(host, options);
  ASSERT_TRUE(server.ExecuteScript(kDdl).ok());
  std::map<std::string, Session> sessions;
  for (const Registration& r : regs) {
    if (!sessions.count(r.tenant)) {
      auto session = server.OpenSession(r.tenant);
      ASSERT_TRUE(session.ok()) << session.status();
      sessions.emplace(r.tenant, *session);
    }
  }
  for (const Registration& r : regs) {
    if (r.register_at != 0) continue;
    auto info = sessions.at(r.tenant).Register(r.name, r.sql);
    ASSERT_TRUE(info.ok()) << info.status();
  }
  for (size_t i = 0; i < events.size(); ++i) {
    for (const Registration& r : regs) {
      if (r.register_at == i && i != 0) {
        auto poll = server.Poll();  // quiesce before the topology change
        ASSERT_TRUE(poll.ok()) << poll.status();
        auto info = sessions.at(r.tenant).Register(r.name, r.sql);
        ASSERT_TRUE(info.ok()) << info.status();
      }
    }
    ASSERT_TRUE(PushEvent(server, events[i]).ok());
  }
  auto poll = server.Poll();
  ASSERT_TRUE(poll.ok()) << poll.status();
  DrainInto(server, regs, out);
}

void ExpectMatchesDedicated(const ServedOutputs& served,
                            const Trace& events,
                            const std::vector<Registration>& regs,
                            const std::string& label) {
  for (const Registration& r : regs) {
    const Rows reference = RunDedicated(r.sql, events, r.register_at);
    auto it = served.find({r.tenant, r.name});
    const Rows got = it == served.end() ? Rows{} : Sorted(it->second);
    EXPECT_EQ(got, reference)
        << label << ": tenant " << r.tenant << " query " << r.name;
  }
}

class ServeDifferentialTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ServeDifferentialTest, EngineHostMatchesDedicatedEngines) {
  const Trace events = MakeTrace(GetParam(), 250, {"R1", "R2"}, 5);
  const auto regs = Workload();
  for (bool share : {true, false}) {
    Engine engine;
    EngineHost host(&engine);
    ServedOutputs served;
    RunServed(&host, share, events, regs, &served);
    ExpectMatchesDedicated(served, events, regs,
                           share ? "engine/shared" : "engine/unshared");
  }
}

TEST_P(ServeDifferentialTest, ShardedHostMatchesDedicatedEngines) {
  const Trace events =
      MakeTrace(GetParam() ^ 0x5bd1e995u, 250, {"R1", "R2"}, 5);
  const auto regs = Workload();
  std::mt19937 rng(GetParam() * 2246822519u + 3);
  for (bool share : {true, false}) {
    for (size_t shards : {2u, 4u}) {
      const ShardedEngineOptions options =
          ShardOptions(shards, DrawRouteBatchSize(rng));
      ShardedEngine engine(options);
      ShardedHost host(&engine);
      ServedOutputs served;
      RunServed(&host, share, events, regs, &served);
      ExpectMatchesDedicated(
          served, events, regs,
          (share ? "sharded/shared/" : "sharded/unshared/") +
              std::to_string(shards) + "/route" +
              std::to_string(options.route_batch_size));
    }
  }
}

TEST_P(ServeDifferentialTest, RecoveredServerMatchesDedicatedEngines) {
  const std::string dir =
      FreshDir("serve_diff_" + std::to_string(GetParam()));
  const Trace events = MakeTrace(GetParam() + 7, 200, {"R1", "R2"}, 5);
  // All registrations up front: recovery must reproduce the full
  // registry, and stateful queries must resume from restored state.
  std::vector<Registration> regs = Workload();
  for (Registration& r : regs) r.register_at = 0;
  const size_t ckpt_at = 80, crash_at = 140;

  WalOptions wal_options;
  wal_options.group_commit_bytes = 0;

  ServedOutputs served;
  {
    Engine engine;
    EngineHost host(&engine);
    QueryServer server(&host);
    ASSERT_TRUE(
        server.EnableWal(dir + "/" + kWalFileName, wal_options).ok());
    ASSERT_TRUE(server.ExecuteScript(kDdl).ok());
    for (const Registration& r : regs) {
      if (!server.AttachSession(r.tenant).ok()) {
        ASSERT_TRUE(server.OpenSession(r.tenant).ok());
      }
      auto session = server.AttachSession(r.tenant);
      ASSERT_TRUE(session.ok());
      auto info = session->Register(r.name, r.sql);
      ASSERT_TRUE(info.ok()) << info.status();
    }
    PushEvents(server, events, 0, ckpt_at);
    DrainInto(server, regs, &served);
    ASSERT_TRUE(server.Checkpoint(dir).ok());
    PushEvents(server, events, ckpt_at, crash_at);
    DrainInto(server, regs, &served);
  }  // crash: emissions after the last drain are re-derived from WAL

  {
    Engine engine;
    EngineHost host(&engine);
    QueryServer server(&host);
    const Status recovered = server.RecoverFrom(dir);
    ASSERT_TRUE(recovered.ok()) << recovered;
    PushEvents(server, events, crash_at, events.size());
    auto poll = server.Poll();
    ASSERT_TRUE(poll.ok()) << poll.status();
    DrainInto(server, regs, &served);
  }

  ExpectMatchesDedicated(served, events, regs, "recovered");
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeDifferentialTest,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace eslev
