// Allocation-count check (ctest label `perf`) for the served single-Engine
// host: QueryServer over one Engine, tenants draining their sessions. It
// pins heap allocations per input and per delivery, counted with the
// counting `operator new` of tests/perf/alloc_counter.h (this binary
// only; under ASan and TSan only the allocation assertions are skipped).
//
// The trace has E19 `tenant_cep`'s shape at half its size: Example
// 6's quality line, Example 7's packing trace and Example 5's lab
// workflow from src/rfid, merged on one time base, a heartbeat and a poll
// every 64 inputs. Eight tenants hold ten registrations: Example 6 in
// CHRONICLE for six tenants (written three ways, so shared plans fold
// them into one pipeline), in RECENT and UNRESTRICTED for a seventh, and
// Examples 7 and 5 for the eighth. Every poll drains every session. The
// first inputs are a warm-up, so buffers that grow to their steady size
// once are not counted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "rfid/workloads.h"
#include "serve/serve_host.h"
#include "serve/server.h"
#include "tests/perf/alloc_counter.h"

namespace eslev {
namespace {

// Inputs replayed before counting starts.
constexpr size_t kWarmupInputs = 1000;
constexpr size_t kHeartbeatEvery = 64;
constexpr size_t kPollEvery = 64;

// The pins (allocations per unit, counted after the warm-up).
constexpr double kMaxPerInput = 7.0;
constexpr double kMaxPerDelivery = 3.75;

rfid::Workload TenantCepTrace() {
  rfid::QualityCheckWorkloadOptions q;
  q.num_products = 750;
  q.stage_delay = Milliseconds(200);
  q.product_interval = Milliseconds(10);
  q.drop_rate = 0.05;
  q.seed = 4;
  rfid::Workload quality = rfid::MakeQualityCheckWorkload(q);
  const Duration span =
      static_cast<Duration>(q.num_products) * q.product_interval;

  rfid::PackingWorkloadOptions p;
  p.num_cases = static_cast<size_t>(span / Milliseconds(540));
  p.max_intra_gap = Milliseconds(90);
  p.case_delay = Milliseconds(300);
  p.inter_case_gap = Milliseconds(400);
  p.seed = 5;
  rfid::PackingWorkload packing = rfid::MakePackingWorkload(p);

  rfid::LabWorkflowWorkloadOptions l;
  l.num_rounds = static_cast<size_t>(span / Milliseconds(400));
  l.step_delay = Milliseconds(100);
  l.window = Seconds(1);
  l.round_gap = Milliseconds(50);
  l.seed = 6;
  rfid::Workload lab = rfid::MakeLabWorkflowWorkload(l);

  rfid::Workload merged;
  for (const rfid::Workload* part :
       {&quality, static_cast<rfid::Workload*>(&packing), &lab}) {
    merged.events.insert(merged.events.end(), part->events.begin(),
                         part->events.end());
  }
  std::stable_sort(merged.events.begin(), merged.events.end(),
                   [](const rfid::TimedReading& a,
                      const rfid::TimedReading& b) {
                     return a.tuple.ts() < b.tuple.ts();
                   });
  rfid::NormalizeUniqueTimestamps(&merged);
  return merged;
}

std::string QualityQuery(const std::string& mode, const std::string& pad) {
  return "SELECT C4.tagid," + pad +
         "C1.tagtime, C4.tagtime FROM C1, C2, C3, C4"
         " WHERE SEQ(C1, C2, C3, C4) OVER [1" +
         pad + "SECONDS PRECEDING C4] MODE " + mode +
         " AND C1.tagid = C2.tagid AND C2.tagid = C3.tagid" + pad +
         "AND C3.tagid = C4.tagid";
}

struct Registration {
  std::string tenant;
  std::string name;
  std::string sql;
};

std::vector<Registration> Registrations() {
  std::vector<Registration> out;
  for (int t = 0; t < 6; ++t) {
    const std::string pad(static_cast<size_t>(t % 3) + 1, ' ');
    out.push_back({"t" + std::to_string(t), "quality",
                   QualityQuery("CHRONICLE", pad)});
  }
  out.push_back({"t6", "recent", QualityQuery("RECENT", " ")});
  out.push_back({"t6", "unrestricted", QualityQuery("UNRESTRICTED", " ")});
  out.push_back(
      {"t7", "packing",
       "SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime"
       " FROM R1, R2 WHERE SEQ(R1*, R2) MODE CHRONICLE"
       " AND R2.tagtime - LAST(R1*).tagtime <= 500 MILLISECONDS"
       " AND R1.tagtime - R1.previous.tagtime <= 100 MILLISECONDS"});
  out.push_back(
      {"t7", "lab",
       "SELECT A1.tagtime, A2.tagtime, A3.tagtime FROM A1, A2, A3"
       " WHERE EXCEPTION_SEQ(A1, A2, A3) OVER [1 SECONDS FOLLOWING A1]"});
  return out;
}

struct ServedCounts {
  AllocCount per_input;     // units: pushed inputs
  AllocCount per_delivery;  // units: emissions drained by sessions
  std::map<std::string, uint64_t> delivered;  // by "tenant/query"
  size_t pipelines = 0;
};

ServedCounts ReplayServed(const rfid::Workload& trace) {
  ServedCounts out;
  Engine engine;
  EngineHost host(&engine);
  QueryServer server(&host);
  for (const char* stream : {"C1", "C2", "C3", "C4", "R1", "R2"}) {
    EXPECT_TRUE(server
                    .ExecuteScript(std::string("CREATE STREAM ") + stream +
                                   "(readerid, tagid, tagtime)")
                    .ok());
  }
  for (const char* stream : {"A1", "A2", "A3"}) {
    EXPECT_TRUE(server
                    .ExecuteScript(std::string("CREATE STREAM ") + stream +
                                   "(staffid, tagid, tagtime)")
                    .ok());
  }
  // Example 7's open star group has no static bound.
  TenantQuotas quotas;
  quotas.allow_unbounded_state = true;
  std::map<std::string, Session> sessions;
  for (int t = 0; t < 8; ++t) {
    const std::string tenant = "t" + std::to_string(t);
    auto session = server.OpenSession(tenant, quotas);
    EXPECT_TRUE(session.ok()) << session.status();
    if (session.ok()) sessions.emplace(tenant, *session);
  }
  for (const Registration& r : Registrations()) {
    auto info = sessions.at(r.tenant).Register(r.name, r.sql);
    EXPECT_TRUE(info.ok()) << info.status() << "\n" << r.sql;
    // Every key exists before counting starts.
    out.delivered[r.tenant + "/" + r.name] = 0;
  }
  out.pipelines = server.plan_cache().size();

  uint64_t deliveries = 0;
  auto poll = [&] {
    EXPECT_TRUE(server.Poll().ok());
    for (auto& [tenant, session] : sessions) {
      const std::string& name = tenant;
      auto drained = session.Drain([&](const ServedEmission& e) {
        ++out.delivered[name + "/" + e.query];
      });
      EXPECT_TRUE(drained.ok()) << drained.status();
      if (drained.ok()) deliveries += *drained;
    }
  };

  Timestamp max_ts = kMinTimestamp;
  uint64_t counted_deliveries = 0;
  for (size_t i = 0; i < trace.events.size(); ++i) {
    if (i == kWarmupInputs) {
      counted_deliveries = deliveries;
      StartCounting();
    }
    const rfid::TimedReading& e = trace.events[i];
    max_ts = std::max(max_ts, e.tuple.ts());
    EXPECT_TRUE(server.PushTuple(e.stream, e.tuple).ok());
    if ((i + 1) % kHeartbeatEvery == 0) {
      EXPECT_TRUE(server.AdvanceTime(max_ts).ok());
    }
    if ((i + 1) % kPollEvery == 0) poll();
    if (i >= kWarmupInputs) ++out.per_input.units;
  }
  out.per_input.allocations = StopCounting();
  out.per_delivery.allocations = out.per_input.allocations;
  out.per_delivery.units = deliveries - counted_deliveries;
  EXPECT_TRUE(server.AdvanceTime(max_ts + Seconds(2)).ok());
  poll();
  return out;
}

TEST(ServedEngineAllocCountTest, InputAndDeliveryStayUnderPins) {
  const rfid::Workload trace = TenantCepTrace();
  ASSERT_GT(trace.events.size(), 2 * kWarmupInputs);

  const ServedCounts first = ReplayServed(trace);
  const ServedCounts second = ReplayServed(trace);

  // The six CHRONICLE registrations share one pipeline, so ten
  // registrations run as five pipelines, and every tenant of a query
  // sees the same rows.
  EXPECT_EQ(first.pipelines, 5u);
  EXPECT_EQ(second.delivered, first.delivered);
  for (const auto& [query, rows] : first.delivered) {
    EXPECT_GT(rows, 0u) << query;
    if (query.ends_with("/quality")) {
      EXPECT_EQ(rows, first.delivered.at("t0/quality")) << query;
    }
  }

  if (!kCountingAllocations) {
    GTEST_SKIP() << "operator new is the sanitizer's here; allocation "
                    "counts are checked in unsanitized builds";
  }
  std::printf(
      "allocations: %.3f per input (%llu / %llu), %.3f per delivery "
      "(%llu / %llu)\n",
      first.per_input.PerUnit(),
      static_cast<unsigned long long>(first.per_input.allocations),
      static_cast<unsigned long long>(first.per_input.units),
      first.per_delivery.PerUnit(),
      static_cast<unsigned long long>(first.per_delivery.allocations),
      static_cast<unsigned long long>(first.per_delivery.units));
  // Deterministic: a second replay makes exactly the same allocations.
  EXPECT_EQ(first.per_input, second.per_input);
  EXPECT_EQ(first.per_delivery, second.per_delivery);

  EXPECT_GT(first.per_delivery.units, 0u);
  EXPECT_LE(first.per_input.PerUnit(), kMaxPerInput);
  EXPECT_LE(first.per_delivery.PerUnit(), kMaxPerDelivery);
}

}  // namespace
}  // namespace eslev
