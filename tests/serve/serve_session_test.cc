// Unit tests for the multi-tenant serving layer (DESIGN.md §17):
// session lifecycle, plan sharing, runtime unregistration, admission
// control against the PR 9 static state bounds, backpressure and the
// serving metrics surface.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "serve/server.h"

namespace eslev {
namespace {

constexpr char kDdl[] = R"sql(
  CREATE STREAM R1(readerid, tagid, tagtime);
  CREATE STREAM R2(readerid, tagid, tagtime);
)sql";

// Bounded: rate(R1) * 5s + 1 retained tuples (51 once R1 declares
// 10 tuples/s).
constexpr char kBoundedSeq[] =
    "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
    "PRECEDING R2] AND R1.tagid = R2.tagid";
// Unbounded: SEQ history with no window grants no purge license.
constexpr char kUnboundedSeq[] =
    "SELECT R1.tagid FROM R1, R2 WHERE SEQ(R1, R2) AND R1.tagid = R2.tagid";
// Stateless pass-through filter.
constexpr char kFilter[] = "SELECT * FROM R1 WHERE R1.tagid = 'x'";

class ServeSessionTest : public ::testing::Test {
 protected:
  ServeSessionTest() : host_(&engine_), server_(&host_) {}

  void SetUp() override {
    const Status status = server_.ExecuteScript(kDdl);
    ASSERT_TRUE(status.ok()) << status;
  }

  Status PushR1(const std::string& tag, Timestamp ts) {
    return server_.Push(
        "R1", {Value::String("r"), Value::String(tag), Value::Time(ts)}, ts);
  }

  Engine engine_;
  EngineHost host_;
  QueryServer server_;
};

TEST_F(ServeSessionTest, OperatorScriptRejectsBareSelectAndExplain) {
  const Status select = server_.ExecuteScript(kFilter);
  EXPECT_FALSE(select.ok());
  EXPECT_NE(select.message().find("Session::Register"), std::string::npos)
      << select;
  EXPECT_FALSE(server_.ExecuteScript("EXPLAIN SELECT * FROM R1").ok());
}

TEST_F(ServeSessionTest, RegisterRejectsNonSelect) {
  auto session = server_.OpenSession("acme");
  ASSERT_TRUE(session.ok()) << session.status();
  const auto r = session->Register(
      "q", "INSERT INTO R2 SELECT * FROM R1 WHERE R1.tagid = 'x'");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("operator plane"), std::string::npos);
}

TEST_F(ServeSessionTest, DuplicateSessionAndDuplicateQueryNameRejected) {
  ASSERT_TRUE(server_.OpenSession("acme").ok());
  EXPECT_TRUE(server_.OpenSession("acme").status().IsAlreadyExists());

  auto session = Session();
  {
    auto again = server_.OpenSession("globex");
    ASSERT_TRUE(again.ok());
    session = *again;
  }
  ASSERT_TRUE(session.Register("q", kFilter).ok());
  const auto dup = session.Register("q", kBoundedSeq);
  EXPECT_TRUE(dup.status().IsAlreadyExists()) << dup.status();
  // The name stays bound to the original query.
  auto queries = session.Queries();
  ASSERT_TRUE(queries.ok());
  ASSERT_EQ(queries->size(), 1u);
}

TEST_F(ServeSessionTest, IdenticalQueriesShareOnePipeline) {
  auto a = server_.OpenSession("acme");
  auto b = server_.OpenSession("globex");
  ASSERT_TRUE(a.ok() && b.ok());

  auto qa = a->Register("mine", kFilter);
  ASSERT_TRUE(qa.ok()) << qa.status();
  EXPECT_FALSE(qa->shared);

  // Formatting and keyword case differ; canonicalization matches them.
  auto qb = b->Register(
      "same", "select  *  from R1\n where R1.tagid  =  'x'");
  ASSERT_TRUE(qb.ok()) << qb.status();
  EXPECT_TRUE(qb->shared);
  EXPECT_EQ(qa->engine_query_id, qb->engine_query_id);
  EXPECT_EQ(server_.plan_cache().size(), 1u);

  // One emission fans out to both tenants.
  ASSERT_TRUE(PushR1("x", Seconds(1)).ok());
  ASSERT_TRUE(PushR1("y", Seconds(2)).ok());
  ASSERT_TRUE(server_.Poll().ok());
  std::vector<std::string> got_a, got_b;
  ASSERT_TRUE(a->Drain([&](const ServedEmission& e) {
                 got_a.push_back(e.query + ":" + e.tuple.ToString());
               }).ok());
  ASSERT_TRUE(b->Drain([&](const ServedEmission& e) {
                 got_b.push_back(e.query + ":" + e.tuple.ToString());
               }).ok());
  ASSERT_EQ(got_a.size(), 1u);
  ASSERT_EQ(got_b.size(), 1u);
  EXPECT_EQ(got_a[0].substr(0, 5), "mine:");
  EXPECT_EQ(got_b[0].substr(0, 5), "same:");
  EXPECT_EQ(got_a[0].substr(5), got_b[0].substr(5));
}

TEST_F(ServeSessionTest, SharingDisabledCompilesSeparatePipelines) {
  Engine engine;
  EngineHost host(&engine);
  QueryServerOptions options;
  options.share_plans = false;
  QueryServer server(&host, options);
  ASSERT_TRUE(server.ExecuteScript(kDdl).ok());
  auto a = server.OpenSession("acme");
  auto b = server.OpenSession("globex");
  ASSERT_TRUE(a.ok() && b.ok());
  auto qa = a->Register("q", kFilter);
  auto qb = b->Register("q", kFilter);
  ASSERT_TRUE(qa.ok() && qb.ok());
  EXPECT_FALSE(qb->shared);
  EXPECT_NE(qa->engine_query_id, qb->engine_query_id);
  EXPECT_EQ(server.plan_cache().size(), 2u);
}

TEST_F(ServeSessionTest, UnregisterMidStreamStopsOnlyThatTenant) {
  auto a = server_.OpenSession("acme");
  auto b = server_.OpenSession("globex");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->Register("q", kFilter).ok());
  ASSERT_TRUE(b->Register("q", kFilter).ok());

  ASSERT_TRUE(PushR1("x", Seconds(1)).ok());
  // Unregister without draining first: the emission produced before the
  // unregistration must survive in acme's outbox.
  ASSERT_TRUE(a->Unregister("q").ok());
  EXPECT_EQ(a->pending(), 1u);

  ASSERT_TRUE(PushR1("x", Seconds(2)).ok());
  ASSERT_TRUE(server_.Poll().ok());
  EXPECT_EQ(a->pending(), 1u);  // no new deliveries after unregister
  EXPECT_EQ(b->pending(), 2u);

  // The shared pipeline survives while globex still subscribes.
  EXPECT_EQ(server_.plan_cache().size(), 1u);
  ASSERT_TRUE(b->Unregister("q").ok());
  EXPECT_EQ(server_.plan_cache().size(), 0u);

  // With the last subscriber gone the pipeline is destroyed: new pushes
  // reach nobody and the query slot is reusable.
  ASSERT_TRUE(PushR1("x", Seconds(3)).ok());
  EXPECT_EQ(b->pending(), 2u);
  ASSERT_TRUE(a->Register("q2", kFilter).ok());
}

TEST_F(ServeSessionTest, UnregisterUnknownNameIsNotFound) {
  auto session = server_.OpenSession("acme");
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->Unregister("nope").IsNotFound());
}

TEST_F(ServeSessionTest, MaxQueriesQuotaRejects) {
  TenantQuotas quotas;
  quotas.max_queries = 1;
  auto session = server_.OpenSession("acme", quotas);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Register("q1", kFilter).ok());
  const auto r = session->Register("q2", kBoundedSeq);
  EXPECT_TRUE(r.status().IsOutOfRange()) << r.status();
  EXPECT_NE(r.status().message().find("query quota"), std::string::npos);
  // Unregistering frees the slot.
  ASSERT_TRUE(session->Unregister("q1").ok());
  EXPECT_TRUE(session->Register("q2", kBoundedSeq).ok());
}

TEST_F(ServeSessionTest, StateBudgetRejectionCarriesSymbolicBound) {
  StreamStats stats;
  stats.rate_per_sec = 10;
  stats.distinct_keys = 4;
  ASSERT_TRUE(server_.DeclareStreamStats("R1", stats).ok());
  ASSERT_TRUE(server_.DeclareStreamStats("R2", stats).ok());

  TenantQuotas quotas;
  quotas.max_state_tuples = 60;  // one 51-tuple query fits, two do not
  auto session = server_.OpenSession("acme", quotas);
  ASSERT_TRUE(session.ok());

  auto first = session->Register("q1", kBoundedSeq);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_DOUBLE_EQ(first->state_tuples, 51);  // 10/s * 5s + 1
  EXPECT_DOUBLE_EQ(session->admitted_state_tuples(), 51);

  // A distinct query with the same shape (different projection) cannot
  // share the pipeline, so its 51-tuple bound exceeds the remaining 9.
  const auto r = session->Register(
      "q2",
      "SELECT R2.tagid FROM R1, R2 WHERE SEQ(R1, R2) OVER [5 SECONDS "
      "PRECEDING R2] AND R1.tagid = R2.tagid");
  ASSERT_TRUE(r.status().IsOutOfRange()) << r.status();
  // The error embeds the symbolic bound, not just a number.
  EXPECT_NE(r.status().message().find("r(R1)*5s+1"), std::string::npos)
      << r.status();
  EXPECT_NE(r.status().message().find("51 of 60"), std::string::npos)
      << r.status();

  // Releasing the first query returns its budget.
  ASSERT_TRUE(session->Unregister("q1").ok());
  EXPECT_DOUBLE_EQ(session->admitted_state_tuples(), 0);
  EXPECT_TRUE(session->Register("q2", kBoundedSeq).ok());
}

TEST_F(ServeSessionTest, UnboundedStateRequiresOptIn) {
  auto strict = server_.OpenSession("strict");
  ASSERT_TRUE(strict.ok());
  const auto r = strict->Register("q", kUnboundedSeq);
  ASSERT_TRUE(r.status().IsOutOfRange()) << r.status();
  EXPECT_NE(r.status().message().find("unbounded"), std::string::npos);

  TenantQuotas quotas;
  quotas.allow_unbounded_state = true;
  auto lax = server_.OpenSession("lax", quotas);
  ASSERT_TRUE(lax.ok());
  auto admitted = lax->Register("q", kUnboundedSeq);
  ASSERT_TRUE(admitted.ok()) << admitted.status();
  EXPECT_FALSE(admitted->state_bounded);
}

TEST_F(ServeSessionTest, RecentOutsideItsPurgeLicenseIsUnbounded) {
  // Anchored before the trigger, the window leaves RECENT without a purge
  // and evicts nothing (DESIGN.md §5), so the history grows and a strict
  // tenant is refused.
  ASSERT_TRUE(
      server_.ExecuteScript("CREATE STREAM R3(readerid, tagid, tagtime);")
          .ok());
  auto strict = server_.OpenSession("strict");
  ASSERT_TRUE(strict.ok());
  const auto r = strict->Register(
      "mid", "SELECT R1.tagid FROM R1, R2, R3 WHERE SEQ(R1, R2, R3) OVER "
             "[10 SECONDS PRECEDING R2] MODE RECENT");
  ASSERT_TRUE(r.status().IsOutOfRange()) << r.status();
  EXPECT_NE(r.status().message().find("unbounded"), std::string::npos);

  // Anchored at the trigger, RECENT purges and keeps 2 + 1 entries.
  auto admitted = strict->Register(
      "last", "SELECT R1.tagid FROM R1, R2, R3 WHERE SEQ(R1, R2, R3) OVER "
              "[10 SECONDS PRECEDING R3] MODE RECENT");
  ASSERT_TRUE(admitted.ok()) << admitted.status();
  EXPECT_TRUE(admitted->state_bounded);
  EXPECT_DOUBLE_EQ(admitted->state_tuples, 3);
}

TEST_F(ServeSessionTest, SharedAttachmentStillChargesTheTenant) {
  StreamStats stats;
  stats.rate_per_sec = 10;
  stats.distinct_keys = 4;
  ASSERT_TRUE(server_.DeclareStreamStats("R1", stats).ok());
  ASSERT_TRUE(server_.DeclareStreamStats("R2", stats).ok());

  auto a = server_.OpenSession("acme");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a->Register("q", kBoundedSeq).ok());

  TenantQuotas tight;
  tight.max_state_tuples = 50;  // below the 51-tuple charge
  auto b = server_.OpenSession("globex", tight);
  ASSERT_TRUE(b.ok());
  // The pipeline already runs (cache hit), but the tenant is charged
  // for its logical share and rejected — sharing must not become a
  // quota bypass.
  const auto r = b->Register("q", kBoundedSeq);
  EXPECT_TRUE(r.status().IsOutOfRange()) << r.status();
  EXPECT_NE(r.status().message().find("r(R1)*5s+1"), std::string::npos);
}

TEST_F(ServeSessionTest, BackpressureDropsPerPolicyWithSeqGaps) {
  TenantQuotas quotas;
  quotas.max_pending_emissions = 2;
  quotas.backpressure = BackpressurePolicy::kDropOldest;
  auto session = server_.OpenSession("slow", quotas);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Register("q", kFilter).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(PushR1("x", Seconds(i + 1)).ok());
  }
  EXPECT_EQ(session->pending(), 2u);
  std::vector<uint64_t> seqs;
  ASSERT_TRUE(
      session->Drain([&](const ServedEmission& e) { seqs.push_back(e.seq); })
          .ok());
  // Drop-oldest kept the two newest of five (seq 3, 4).
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0], 3u);
  EXPECT_EQ(seqs[1], 4u);
}

TEST_F(ServeSessionTest, CloseSessionReleasesEverything) {
  auto a = server_.OpenSession("acme");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a->Register("q1", kFilter).ok());
  ASSERT_TRUE(a->Register("q2", kBoundedSeq).ok());
  ASSERT_TRUE(server_.CloseSession("acme").ok());
  EXPECT_EQ(server_.tenant_count(), 0u);
  EXPECT_EQ(server_.plan_cache().size(), 0u);
  EXPECT_TRUE(a->Register("q3", kFilter).status().IsNotFound());
  EXPECT_TRUE(server_.CloseSession("acme").IsNotFound());
}

TEST_F(ServeSessionTest, MetricsMergeServingSeries) {
  auto a = server_.OpenSession("acme");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a->Register("q", kFilter).ok());
  ASSERT_TRUE(PushR1("x", Seconds(1)).ok());
  ASSERT_TRUE(server_.Poll().ok());

  auto metrics = server_.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->gauges.at("serve.tenants"), 1);
  EXPECT_EQ(metrics->gauges.at("serve.plan_cache.entries"), 1);
  EXPECT_EQ(metrics->gauges.at("serve.plan_cache.sharing_enabled"), 1);
  EXPECT_EQ(metrics->gauges.at("tenant.acme.queries"), 1);
  EXPECT_EQ(metrics->gauges.at("tenant.acme.pending"), 1);
  EXPECT_EQ(metrics->counters.at("tenant.acme.emitted"), 1u);
  // Host metrics survive the merge (R1 received one push).
  EXPECT_FALSE(metrics->counters.empty());
}

TEST_F(ServeSessionTest, ExplainAnnotatesServedStatements) {
  auto a = server_.OpenSession("acme");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a->Register("q", kFilter).ok());
  auto explained = server_.Explain(std::string("EXPLAIN ") + kFilter);
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_EQ(explained->rfind("-- serving: pipeline q", 0), 0u) << *explained;
  EXPECT_NE(explained->find("acme/q"), std::string::npos) << *explained;

  // Unserved statements pass through unannotated.
  auto other = server_.Explain("EXPLAIN SELECT * FROM R2");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->find("-- serving:"), std::string::npos);
}

}  // namespace
}  // namespace eslev
