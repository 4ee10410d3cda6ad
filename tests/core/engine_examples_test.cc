// End-to-end integration: every query listing from the paper, executed
// through Engine::ExecuteScript / RegisterQuery against synthetic RFID
// workloads, with hand-checked expected outputs.

#include "core/engine.h"

#include <gtest/gtest.h>

namespace eslev {
namespace {

// ---------------------------------------------------------------------------
// Example 1: duplicate filtering
// ---------------------------------------------------------------------------

TEST(EngineExample1Test, DuplicateFiltering) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM readings(reader_id, tag_id, read_time);
    CREATE STREAM cleaned_readings(reader_id, tag_id, read_time);
    INSERT INTO cleaned_readings
    SELECT * FROM readings AS r1
    WHERE NOT EXISTS
      (SELECT * FROM TABLE( readings OVER
          (RANGE 1 seconds PRECEDING CURRENT)) AS r2
       WHERE r2.reader_id = r1.reader_id
         AND r2.tag_id = r1.tag_id);
  )sql")
                  .ok());

  std::vector<Tuple> cleaned;
  ASSERT_TRUE(
      engine.Subscribe("cleaned_readings", [&](const Tuple& t) {
              cleaned.push_back(t);
            }).ok());

  auto push = [&](const std::string& reader, const std::string& tag,
                  Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push("readings",
                          {Value::String(reader), Value::String(tag),
                           Value::Time(ts)},
                          ts)
                    .ok());
  };
  push("rd1", "A", Milliseconds(0));
  push("rd1", "A", Milliseconds(300));   // duplicate
  push("rd1", "A", Milliseconds(700));   // duplicate (chained)
  push("rd2", "A", Milliseconds(800));   // different reader: passes
  push("rd1", "B", Milliseconds(900));   // different tag: passes
  push("rd1", "A", Milliseconds(2500));  // fresh: passes

  ASSERT_EQ(cleaned.size(), 4u);
  EXPECT_EQ(cleaned[0].value(1).string_value(), "A");
  EXPECT_EQ(cleaned[1].value(0).string_value(), "rd2");
  EXPECT_EQ(cleaned[2].value(1).string_value(), "B");
  EXPECT_EQ(cleaned[3].ts(), Milliseconds(2500));
}

// ---------------------------------------------------------------------------
// Example 2: location tracking (stream-to-DB update)
// ---------------------------------------------------------------------------

TEST(EngineExample2Test, LocationTracking) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    STREAM tag_locations(readerid, tid, tagtime, loc);
    TABLE object_movement(tagid, location, start_time);
    INSERT INTO object_movement
    SELECT tid, loc, tagtime
    FROM tag_locations WHERE NOT EXISTS
      (SELECT tagid FROM object_movement
       WHERE tagid = tid AND location = loc);
  )sql")
                  .ok());

  auto push = [&](const std::string& tid, const std::string& loc,
                  Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push("tag_locations",
                          {Value::String("r"), Value::String(tid),
                           Value::Time(ts), Value::String(loc)},
                          ts)
                    .ok());
  };
  push("t1", "dock", Seconds(1));
  push("t1", "dock", Seconds(2));   // same location: no new row
  push("t1", "gate", Seconds(3));   // moved: new row
  push("t2", "dock", Seconds(4));   // different object: new row
  push("t1", "gate", Seconds(5));   // unchanged: no new row

  Table* table = engine.FindTable("object_movement");
  ASSERT_TRUE(table != nullptr);
  ASSERT_EQ(table->num_rows(), 3u);
  EXPECT_EQ(table->rows()[0].value(0).string_value(), "t1");
  EXPECT_EQ(table->rows()[0].value(1).string_value(), "dock");
  EXPECT_EQ(table->rows()[1].value(1).string_value(), "gate");
  EXPECT_EQ(table->rows()[2].value(0).string_value(), "t2");
}

TEST(EngineExample2Test, RevisitedLocationIsNotReinserted) {
  // The paper's query records each (object, location) once: moving back
  // to a previously seen location does not insert a new row (NOT EXISTS
  // checks the full movement history).
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    STREAM tag_locations(readerid, tid, tagtime, loc);
    TABLE object_movement(tagid, location, start_time);
    INSERT INTO object_movement
    SELECT tid, loc, tagtime FROM tag_locations WHERE NOT EXISTS
      (SELECT tagid FROM object_movement
       WHERE tagid = tid AND location = loc);
  )sql")
                  .ok());
  auto push = [&](const std::string& tid, const std::string& loc,
                  Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push("tag_locations",
                          {Value::String("r"), Value::String(tid),
                           Value::Time(ts), Value::String(loc)},
                          ts)
                    .ok());
  };
  push("t1", "dock", Seconds(1));
  push("t1", "gate", Seconds(2));
  push("t1", "dock", Seconds(3));  // back to dock: already recorded
  EXPECT_EQ(engine.FindTable("object_movement")->num_rows(), 2u);
}

// ---------------------------------------------------------------------------
// Example 3: EPC-pattern aggregation with a UDF
// ---------------------------------------------------------------------------

TEST(EngineExample3Test, EpcPatternAggregation) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM readings(reader_id, tid, read_time);
  )sql")
                  .ok());
  auto q = engine.RegisterQuery(R"sql(
    SELECT count(tid) FROM readings WHERE tid LIKE '20.%.%'
      AND extract_serial(tid) > 5000
      AND extract_serial(tid) < 9999
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> counts;
  ASSERT_TRUE(engine.Subscribe(q->output_stream, [&](const Tuple& t) {
                      counts.push_back(t);
                    }).ok());

  auto push = [&](const std::string& epc, Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push("readings",
                          {Value::String("r"), Value::String(epc),
                           Value::Time(ts)},
                          ts)
                    .ok());
  };
  push("20.17.7042", Seconds(1));  // matches
  push("21.17.7042", Seconds(2));  // wrong company
  push("20.01.0042", Seconds(3));  // serial too small
  push("20.99.9998", Seconds(4));  // matches
  push("20.99.9999", Seconds(5));  // 9999 is excluded (strict <)

  // The continuous count emits on each qualifying tuple: 1 then 2.
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0].value(0).int_value(), 1);
  EXPECT_EQ(counts[1].value(0).int_value(), 2);
}

// ---------------------------------------------------------------------------
// Examples 4 & 7 / Figure 1: containment via star sequence
// ---------------------------------------------------------------------------

TEST(EngineExample7Test, ContainmentStarSequence) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM R1(readerid, tagid, tagtime);
    CREATE STREAM R2(readerid, tagid, tagtime);
  )sql")
                  .ok());
  auto q = engine.RegisterQuery(R"sql(
    SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
    FROM R1, R2
    WHERE SEQ(R1*, R2) MODE CHRONICLE
      AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
      AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> events;
  ASSERT_TRUE(engine.Subscribe(q->output_stream, [&](const Tuple& t) {
                      events.push_back(t);
                    }).ok());

  auto product = [&](const std::string& tag, Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push("R1",
                          {Value::String("r1"), Value::String(tag),
                           Value::Time(ts)},
                          ts)
                    .ok());
  };
  auto box = [&](const std::string& tag, Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push("R2",
                          {Value::String("r2"), Value::String(tag),
                           Value::Time(ts)},
                          ts)
                    .ok());
  };
  // Figure 1(b): products of case2 interleave before case1 is read.
  product("p1", Milliseconds(0));
  product("p2", Milliseconds(500));
  product("p3", Milliseconds(1000));
  product("p4", Milliseconds(3000));  // gap 2s > t1: starts group 2
  product("p5", Milliseconds(3600));
  box("case1", Milliseconds(4200));
  box("case2", Milliseconds(4900));

  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].value(1).int_value(), 3);
  EXPECT_EQ(events[0].value(2).string_value(), "case1");
  EXPECT_EQ(events[1].value(1).int_value(), 2);
  EXPECT_EQ(events[1].value(2).string_value(), "case2");
}

TEST(EngineExample7Test, MultipleReturnVariant) {
  // The paper's per-product variant returns one row per packed item.
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM R1(readerid, tagid, tagtime);
    CREATE STREAM R2(readerid, tagid, tagtime);
  )sql")
                  .ok());
  auto q = engine.RegisterQuery(R"sql(
    SELECT R1.tagid, R1.tagtime, R2.tagid, R2.tagtime
    FROM R1, R2
    WHERE SEQ(R1*, R2) MODE CHRONICLE
      AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
      AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> rows;
  ASSERT_TRUE(engine.Subscribe(q->output_stream, [&](const Tuple& t) {
                      rows.push_back(t);
                    }).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine
                    .Push("R1",
                          {Value::String("r1"),
                           Value::String("p" + std::to_string(i)),
                           Value::Time(i * Milliseconds(200))},
                          i * Milliseconds(200))
                    .ok());
  }
  ASSERT_TRUE(engine
                  .Push("R2",
                        {Value::String("r2"), Value::String("boxA"),
                         Value::Time(Seconds(2))},
                        Seconds(2))
                  .ok());
  ASSERT_EQ(rows.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rows[i].value(0).string_value(), "p" + std::to_string(i));
    EXPECT_EQ(rows[i].value(2).string_value(), "boxA");
  }
}

// ---------------------------------------------------------------------------
// Example 6: quality-check SEQ with window and join conditions
// ---------------------------------------------------------------------------

TEST(EngineExample6Test, SeqWithWindowAndJoin) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM C1(readerid, tagid, tagtime);
    CREATE STREAM C2(readerid, tagid, tagtime);
    CREATE STREAM C3(readerid, tagid, tagtime);
    CREATE STREAM C4(readerid, tagid, tagtime);
  )sql")
                  .ok());
  auto q = engine.RegisterQuery(R"sql(
    SELECT C4.tagid, C1.tagtime, C4.tagtime
    FROM C1, C2, C3, C4
    WHERE SEQ(C1, C2, C3, C4)
    OVER [30 MINUTES PRECEDING C4]
      AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid
      AND C1.tagid=C4.tagid
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> done;
  ASSERT_TRUE(engine.Subscribe(q->output_stream, [&](const Tuple& t) {
                      done.push_back(t);
                    }).ok());

  auto step = [&](const std::string& stream, const std::string& tag,
                  Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push(stream,
                          {Value::String(stream), Value::String(tag),
                           Value::Time(ts)},
                          ts)
                    .ok());
  };
  // Product A completes in 20 minutes (within window).
  step("C1", "A", Minutes(0));
  step("C2", "A", Minutes(5));
  step("C3", "A", Minutes(12));
  step("C4", "A", Minutes(20));
  // Product B takes 45 minutes start-to-finish (outside 30-minute window).
  step("C1", "B", Minutes(21));
  step("C2", "B", Minutes(30));
  step("C3", "B", Minutes(40));
  step("C4", "B", Minutes(66));

  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].value(0).string_value(), "A");
  EXPECT_EQ(done[0].value(1).time_value(), Minutes(0));
}

// ---------------------------------------------------------------------------
// Example 5 / §3.1.3: lab workflow EXCEPTION_SEQ + CLEVEL_SEQ
// ---------------------------------------------------------------------------

TEST(EngineExample5Test, ExceptionSeqWorkflow) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM A1(staffid, tagid, tagtime);
    CREATE STREAM A2(staffid, tagid, tagtime);
    CREATE STREAM A3(staffid, tagid, tagtime);
  )sql")
                  .ok());
  auto q = engine.RegisterQuery(R"sql(
    SELECT A1.tagid, A2.tagid, A3.tagid
    FROM A1, A2, A3
    WHERE EXCEPTION_SEQ(A1, A2, A3)
    OVER [1 HOURS FOLLOWING A1]
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> alerts;
  ASSERT_TRUE(engine.Subscribe(q->output_stream, [&](const Tuple& t) {
                      alerts.push_back(t);
                    }).ok());

  auto op = [&](const std::string& stream, const std::string& tag,
                Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push(stream,
                          {Value::String("staff"), Value::String(tag),
                           Value::Time(ts)},
                          ts)
                    .ok());
  };
  // Round 1: correct, in time -> no alert.
  op("A1", "opA", Minutes(0));
  op("A2", "opB", Minutes(10));
  op("A3", "opC", Minutes(20));
  EXPECT_TRUE(alerts.empty());
  // Round 2: C directly follows A -> two alerts (partial + stray C).
  op("A1", "opA", Minutes(30));
  op("A3", "opC", Minutes(35));
  EXPECT_EQ(alerts.size(), 2u);
  // Round 3: started but times out; detected purely by AdvanceTime.
  op("A1", "opA", Minutes(40));
  op("A2", "opB", Minutes(50));
  ASSERT_TRUE(engine.AdvanceTime(Minutes(101)).ok());
  ASSERT_EQ(alerts.size(), 3u);
  EXPECT_EQ(alerts[2].value(0).string_value(), "opA");
  EXPECT_EQ(alerts[2].value(1).string_value(), "opB");
  EXPECT_TRUE(alerts[2].value(2).is_null());
}

TEST(EngineExample5Test, ClevelSeqEquivalentQuery) {
  // The paper: the CLEVEL_SEQ form is equivalent to EXCEPTION_SEQ.
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM A1(staffid, tagid, tagtime);
    CREATE STREAM A2(staffid, tagid, tagtime);
    CREATE STREAM A3(staffid, tagid, tagtime);
  )sql")
                  .ok());
  auto q = engine.RegisterQuery(R"sql(
    SELECT A1.tagid, A2.tagid, A3.tagid
    FROM A1, A2, A3
    WHERE (CLEVEL_SEQ(A1, A2, A3)
    OVER [1 HOURS FOLLOWING A1]) < 3
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> alerts;
  ASSERT_TRUE(engine.Subscribe(q->output_stream, [&](const Tuple& t) {
                      alerts.push_back(t);
                    }).ok());
  auto op = [&](const std::string& stream, const std::string& tag,
                Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push(stream,
                          {Value::String("staff"), Value::String(tag),
                           Value::Time(ts)},
                          ts)
                    .ok());
  };
  op("A1", "opA", Minutes(0));
  op("A2", "opB", Minutes(10));
  op("A3", "opC", Minutes(20));  // completes: level 3, filtered out
  EXPECT_TRUE(alerts.empty());
  op("A2", "opB", Minutes(30));  // wrong start: level 0
  EXPECT_EQ(alerts.size(), 1u);
}

// ---------------------------------------------------------------------------
// Example 8: theft detection with PRECEDING AND FOLLOWING window
// ---------------------------------------------------------------------------

TEST(EngineExample8Test, TheftDetection) {
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM tag_readings(tagid, tagtype, tagtime);
    CREATE STREAM alerts(tagid, tagtype, tagtime);
  )sql")
                  .ok());
  // The paper's Example 8 phrased with the unaccompanied *item* as the
  // alert subject: raise an alert when an item exits with no person
  // within 1 minute before or after.
  auto q = engine.RegisterQuery(R"sql(
    INSERT INTO alerts
    SELECT * FROM tag_readings AS item
    WHERE item.tagtype = 'item' AND NOT EXISTS
      (SELECT * FROM tag_readings AS person
         OVER [1 MINUTES PRECEDING AND FOLLOWING item]
       WHERE person.tagtype = 'person')
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> alerts;
  ASSERT_TRUE(engine.Subscribe("alerts", [&](const Tuple& t) {
                      alerts.push_back(t);
                    }).ok());

  auto push = [&](const std::string& id, const std::string& type,
                  Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push("tag_readings",
                          {Value::String(id), Value::String(type),
                           Value::Time(ts)},
                          ts)
                    .ok());
  };
  push("p1", "person", Seconds(0));
  push("i1", "item", Seconds(30));    // covered by p1 (30s before)
  push("i2", "item", Seconds(100));   // nobody within 60s -> alert
  push("i3", "item", Seconds(200));   // p2 arrives 20s later: covered
  push("p2", "person", Seconds(220));
  ASSERT_TRUE(engine.AdvanceTime(Seconds(400)).ok());

  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].value(0).string_value(), "i2");
}

// ---------------------------------------------------------------------------
// Ad-hoc snapshot queries (§2.1) + context retrieval
// ---------------------------------------------------------------------------

TEST(EngineSnapshotTest, PatientLocationSnapshot) {
  EngineOptions options;
  options.default_retention = Hours(1);
  Engine engine(options);
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM patient_locations(patient, loc, seen_time);
  )sql")
                  .ok());
  auto push = [&](const std::string& p, const std::string& loc,
                  Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push("patient_locations",
                          {Value::String(p), Value::String(loc),
                           Value::Time(ts)},
                          ts)
                    .ok());
  };
  push("alice", "ward-3", Minutes(1));
  push("bob", "icu", Minutes(2));
  push("alice", "radiology", Minutes(5));

  auto rows = engine.ExecuteSnapshot(
      "SELECT loc, seen_time FROM patient_locations "
      "WHERE patient = 'alice'");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1].value(0).string_value(), "radiology");

  // Aggregate snapshot: latest sighting per patient.
  auto latest = engine.ExecuteSnapshot(
      "SELECT patient, max(seen_time) FROM patient_locations "
      "GROUP BY patient");
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->size(), 2u);
}

TEST(EngineSnapshotTest, ContextRetrievalJoin) {
  // §2.1 Context Retrieval: enrich tag readings with authorization data
  // from a table, as a continuous stream-table join.
  Engine engine;
  ASSERT_TRUE(engine
                  .ExecuteScript(R"sql(
    CREATE STREAM gate_readings(tagid, gate, read_time);
    CREATE TABLE authorizations(tagid, owner, clearance);
  )sql")
                  .ok());
  Table* auth = engine.FindTable("authorizations");
  ASSERT_TRUE(auth->Insert({Value::String("t1"), Value::String("alice"),
                            Value::String("high")})
                  .ok());
  ASSERT_TRUE(auth->Insert({Value::String("t2"), Value::String("bob"),
                            Value::String("low")})
                  .ok());
  ASSERT_TRUE(auth->CreateIndex("tagid").ok());

  auto q = engine.RegisterQuery(R"sql(
    SELECT g.tagid, g.gate, a.owner, a.clearance
    FROM gate_readings AS g, authorizations AS a
    WHERE a.tagid = g.tagid
  )sql");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> enriched;
  ASSERT_TRUE(engine.Subscribe(q->output_stream, [&](const Tuple& t) {
                      enriched.push_back(t);
                    }).ok());
  ASSERT_TRUE(engine
                  .Push("gate_readings",
                        {Value::String("t2"), Value::String("gateA"),
                         Value::Time(Seconds(1))},
                        Seconds(1))
                  .ok());
  ASSERT_TRUE(engine
                  .Push("gate_readings",
                        {Value::String("t9"), Value::String("gateA"),
                         Value::Time(Seconds(2))},
                        Seconds(2))
                  .ok());  // unknown tag: no output (inner join)
  ASSERT_EQ(enriched.size(), 1u);
  EXPECT_EQ(enriched[0].value(2).string_value(), "bob");
  EXPECT_EQ(enriched[0].value(3).string_value(), "low");
}

// ---------------------------------------------------------------------------
// Engine-level error handling and invariants
// ---------------------------------------------------------------------------

TEST(EngineErrorTest, Validation) {
  Engine engine;
  ASSERT_TRUE(engine.ExecuteScript("CREATE STREAM s(a, b, ts_time);").ok());
  // Duplicate creation.
  EXPECT_TRUE(engine.ExecuteScript("CREATE STREAM s(a);").IsAlreadyExists());
  // Unknown stream.
  EXPECT_TRUE(engine.Push("nope", {Value::Int(1)}, 0).IsNotFound());
  EXPECT_TRUE(engine.Subscribe("nope", [](const Tuple&) {}).IsNotFound());
  // Arity mismatch.
  EXPECT_TRUE(engine.Push("s", {Value::Int(1)}, 0).IsInvalid());
  // Unknown source in a query.
  EXPECT_TRUE(
      engine.RegisterQuery("SELECT * FROM missing").status().IsNotFound());
  // Out-of-order timestamps.
  ASSERT_TRUE(engine
                  .Push("s", {Value::String("x"), Value::String("y"),
                              Value::Time(Seconds(5))},
                        Seconds(5))
                  .ok());
  EXPECT_TRUE(engine
                  .Push("s", {Value::String("x"), Value::String("y"),
                              Value::Time(Seconds(4))},
                        Seconds(4))
                  .IsOutOfRange());
  EXPECT_TRUE(engine.AdvanceTime(Seconds(1)).IsOutOfRange());
}

TEST(EngineErrorTest, InsertArityChecked) {
  Engine engine;
  ASSERT_TRUE(engine.ExecuteScript(R"sql(
    CREATE STREAM a(x, y);
    CREATE STREAM b(x);
  )sql")
                  .ok());
  EXPECT_TRUE(engine.RegisterQuery("INSERT INTO b SELECT * FROM a")
                  .status()
                  .IsBindError());
}

TEST(EngineErrorTest, SnapshotRequiresRetention) {
  Engine engine;  // no default retention
  ASSERT_TRUE(engine.ExecuteScript("CREATE STREAM s(a, t_time);").ok());
  ASSERT_TRUE(engine
                  .Push("s", {Value::String("x"), Value::Time(1)}, 1)
                  .ok());
  EXPECT_TRUE(engine.ExecuteSnapshot("SELECT * FROM s").status().IsInvalid());
}

TEST(EngineTest, BareSelectCreatesDerivedStream) {
  Engine engine;
  ASSERT_TRUE(engine.ExecuteScript("CREATE STREAM s(a, t_time);").ok());
  auto q = engine.RegisterQuery("SELECT a FROM s WHERE a = 'keep'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->output_stream, "_q1");
  int got = 0;
  ASSERT_TRUE(
      engine.Subscribe(q->output_stream, [&](const Tuple&) { ++got; }).ok());
  ASSERT_TRUE(
      engine.Push("s", {Value::String("keep"), Value::Time(1)}, 1).ok());
  ASSERT_TRUE(
      engine.Push("s", {Value::String("drop"), Value::Time(2)}, 2).ok());
  EXPECT_EQ(got, 1);
}

TEST(EngineTest, ChainedQueriesComposeThroughDerivedStreams) {
  // Dedup feeding an aggregate — queries compose via named streams.
  Engine engine;
  ASSERT_TRUE(engine.ExecuteScript(R"sql(
    CREATE STREAM readings(reader_id, tag_id, read_time);
    CREATE STREAM cleaned(reader_id, tag_id, read_time);
    INSERT INTO cleaned
    SELECT * FROM readings AS r1
    WHERE NOT EXISTS
      (SELECT * FROM TABLE( readings OVER
          (RANGE 1 seconds PRECEDING CURRENT)) AS r2
       WHERE r2.reader_id = r1.reader_id AND r2.tag_id = r1.tag_id);
  )sql")
                  .ok());
  auto q = engine.RegisterQuery("SELECT count(tag_id) FROM cleaned");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<int64_t> counts;
  ASSERT_TRUE(engine.Subscribe(q->output_stream, [&](const Tuple& t) {
                      counts.push_back(t.value(0).int_value());
                    }).ok());
  auto push = [&](const std::string& tag, Timestamp ts) {
    ASSERT_TRUE(engine
                    .Push("readings",
                          {Value::String("r"), Value::String(tag),
                           Value::Time(ts)},
                          ts)
                    .ok());
  };
  push("A", Milliseconds(0));
  push("A", Milliseconds(100));  // dup, filtered before the count
  push("B", Milliseconds(200));
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts.back(), 2);
}

}  // namespace
}  // namespace eslev
