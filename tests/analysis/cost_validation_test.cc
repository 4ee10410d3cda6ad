// Estimate-vs-actual validation of the static cost & state-bound
// analyzer (DESIGN.md §16): every corpus query, and two queries that
// keep negation evidence under an evicting window, is registered on a
// live engine, the engine is driven with a synthetic load whose rates and
// key cardinality are declared to the analyzer via DeclareStreamStats,
// and the peak of each operator's live state gauges (the exact gauge
// names the cost report lists in `state_gauges`) must stay at or below
// the operator's static bound. Unbounded bounds assert nothing — the
// point of the harness is that every *bounded* claim is sound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "common/string_util.h"
#include "common/time.h"
#include "core/engine.h"

#ifndef ESLEV_CORPUS_DIR
#error "ESLEV_CORPUS_DIR must point at <repo>/corpus"
#endif

namespace eslev {
namespace {

/// Synthetic-load parameters for one corpus file. Kept small enough
/// that the slowest enumeration (4-position UNRESTRICTED SEQ) stays
/// well under a second, yet long enough to cross every purge boundary
/// that matters at these window lengths.
struct LoadParams {
  double rate_per_stream = 20;  // tuples/sec pushed into each source
  int seconds = 5;              // simulated duration
  int distinct_keys = 10;       // EPC key cardinality
};

LoadParams ParamsFor(const std::string& stem) {
  // The 4-position UNRESTRICTED pipeline enumerates cross products of
  // three retained positions per trigger; keep its history short.
  if (stem == "quality_pipeline") return {10, 4, 10};
  if (stem == "e4_containment") return {20, 5, 10};
  if (stem == "e8_theft") return {20, 10, 10};
  return {20, 5, 10};
}

std::vector<std::string> CorpusFiles() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(ESLEV_CORPUS_DIR)) {
    if (entry.path().extension() == ".sql") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string Stem(const std::string& path) {
  return std::filesystem::path(path).stem().string();
}

/// Names after `keyword` occurrences in `sql` (case-insensitive,
/// whitespace-tolerant): the crude scan is enough for the corpus DDL.
std::vector<std::string> NamesAfter(const std::string& sql,
                                    const std::string& keyword) {
  std::vector<std::string> names;
  const std::string lower = AsciiToLower(sql);
  const std::string needle = AsciiToLower(keyword);
  size_t pos = 0;
  while ((pos = lower.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    while (pos < lower.size() && std::isspace(lower[pos])) ++pos;
    size_t end = pos;
    while (end < lower.size() &&
           (std::isalnum(lower[end]) || lower[end] == '_')) {
      ++end;
    }
    if (end > pos) names.push_back(lower.substr(pos, end - pos));
    pos = end;
  }
  return names;
}

/// Streams the harness feeds directly: declared via CREATE STREAM and
/// not produced by any INSERT INTO query in the same script.
std::vector<std::string> SourceStreams(const std::string& sql) {
  const std::vector<std::string> created = NamesAfter(sql, "CREATE STREAM");
  std::set<std::string> derived;
  for (const std::string& n : NamesAfter(sql, "INSERT INTO")) {
    derived.insert(n);
  }
  std::vector<std::string> sources;
  for (const std::string& n : created) {
    if (derived.count(n) == 0) sources.push_back(n);
  }
  return sources;
}

/// One synthetic tuple for `schema`. TIMESTAMP columns carry the event
/// time; tag columns carry EPC-form ids ("20.<key>.<serial>", the shape
/// extract_serial() requires); e8's tagtype alternates item/person so
/// both sides of the anti-join see traffic.
std::vector<Value> MakeTuple(const SchemaPtr& schema, Timestamp ts,
                             int key, int64_t serial) {
  std::vector<Value> values;
  for (size_t i = 0; i < schema->num_fields(); ++i) {
    const Field& f = schema->field(i);
    if (f.type == TypeId::kTimestamp) {
      values.push_back(Value::Time(ts));
    } else if (f.name.find("type") != std::string::npos) {
      values.push_back(Value::String(serial % 2 == 0 ? "item" : "person"));
    } else if (f.name.find("loc") != std::string::npos) {
      values.push_back(Value::String("loc" + std::to_string(key % 3)));
    } else if (f.name.find("reader") != std::string::npos ||
               f.name.find("staff") != std::string::npos) {
      values.push_back(Value::String("r" + std::to_string(key % 3)));
    } else {
      values.push_back(Value::String("20." + std::to_string(key) + "." +
                                     std::to_string(serial)));
    }
  }
  return values;
}

/// Inputs beyond the corpus: negation evidence under an evicting window,
/// which only window eviction bounds (RECENT's purge keeps all of it).
/// At the default 1000/s the CHRONICLE query's bound is 15003 tuples.
constexpr char kNegationDdl[] = R"sql(
  CREATE STREAM R1(readerid, tagid, tagtime);
  CREATE STREAM R2(readerid, tagid, tagtime);
  CREATE STREAM R3(readerid, tagid, tagtime);
)sql";

struct ValidationInput {
  std::string name;
  std::string sql;
  LoadParams load;
  size_t bounded_rows = 0;  // at least this many rows are checked
};

TEST(CostValidationTest, MeasuredPeakStateStaysWithinStaticBounds) {
  std::vector<ValidationInput> inputs;
  for (const std::string& path : CorpusFiles()) {
    inputs.push_back({path, ReadFile(path), ParamsFor(Stem(path))});
  }
  inputs.push_back(
      {"chronicle_negation",
       std::string(kNegationDdl) +
           "CREATE STREAM R4(readerid, tagid, tagtime);"
           "SELECT R4.tagid FROM R1, R2, R3, R4 WHERE SEQ(R1, !R2, R3, R4) "
           "OVER [5 SECONDS PRECEDING R4] MODE CHRONICLE AND R1.tagid = "
           "R4.tagid AND R3.tagid = R4.tagid;",
       {20, 10, 10},
       1});
  inputs.push_back({"recent_negation",
                    std::string(kNegationDdl) +
                        "SELECT R3.tagid FROM R1, R2, R3 WHERE SEQ(R1, !R2, "
                        "R3) OVER [3 SECONDS PRECEDING R3] MODE RECENT;",
                    {20, 10, 10},
                    1});
  size_t validated_rows = 0;
  for (const ValidationInput& input : inputs) {
    SCOPED_TRACE(input.name);
    const std::string& sql = input.sql;
    const LoadParams& load = input.load;
    const size_t validated_before = validated_rows;

    Engine engine;
    ASSERT_TRUE(engine.ExecuteScript(sql).ok());

    // Declare the generator's profile so the static bounds are computed
    // from the same rates the load actually delivers.
    StreamStats stats;
    stats.rate_per_sec = load.rate_per_stream;
    stats.distinct_keys = load.distinct_keys;
    for (const std::string& stream : NamesAfter(sql, "CREATE STREAM")) {
      ASSERT_TRUE(engine.DeclareStreamStats(stream, stats).ok()) << stream;
    }

    const Result<std::vector<QueryCostReport>> reports =
        engine.AnalyzeCost(sql);
    ASSERT_TRUE(reports.ok()) << reports.status();
    ASSERT_FALSE(reports->empty());

    // Drive the load: round-robin over the source streams with strictly
    // increasing timestamps, `rate_per_stream` tuples/sec each, keys
    // shared across streams per tick so pairwise tag joins can match.
    const std::vector<std::string> sources = SourceStreams(sql);
    ASSERT_FALSE(sources.empty());
    const int ticks =
        static_cast<int>(load.rate_per_stream) * load.seconds;
    const int64_t step_us =
        Seconds(1) / (static_cast<int64_t>(load.rate_per_stream) *
                      static_cast<int64_t>(sources.size()));
    std::map<std::string, int64_t> peak;  // gauge key -> max observed
    int64_t serial = 0;
    for (int tick = 0; tick < ticks; ++tick) {
      const int key = tick % load.distinct_keys;
      for (const std::string& stream : sources) {
        const Timestamp ts = serial * step_us;
        const Stream* s = engine.FindStream(stream);
        ASSERT_NE(s, nullptr) << stream;
        const Status pushed =
            engine.Push(stream, MakeTuple(s->schema(), ts, key, serial), ts);
        ASSERT_TRUE(pushed.ok()) << stream << ": " << pushed;
        ++serial;
      }
      const MetricsSnapshot snap = engine.Metrics();
      for (const auto& [name, v] : snap.gauges) {
        peak[name] = std::max(peak[name], v);
      }
    }

    // Query ids are assigned in statement order, matching report order;
    // operator row k joins the query<id>.op<k>.<label>.* gauges.
    for (size_t q = 0; q < reports->size(); ++q) {
      const QueryCostReport& report = (*reports)[q];
      for (size_t k = 0; k < report.operators.size(); ++k) {
        const OperatorCost& row = report.operators[k];
        if (!row.state.bounded || row.state_gauges.empty()) continue;
        const std::string prefix = "query" + std::to_string(q + 1) + ".op" +
                                   std::to_string(k) + "." + row.label + ".";
        int64_t measured = 0;
        for (const std::string& gauge : row.state_gauges) {
          const auto it = peak.find(prefix + gauge);
          if (it != peak.end()) measured += it->second;
        }
        EXPECT_LE(static_cast<double>(measured),
                  std::ceil(row.state.tuples))
            << prefix << " exceeded its static bound\n  formula: "
            << row.state.formula << "\n  statement: " << report.statement;
        ++validated_rows;
      }
    }
    EXPECT_GE(validated_rows - validated_before, input.bounded_rows);
  }
  // The harness must not be vacuous: the corpus contains bounded SEQ,
  // EXCEPTION_SEQ, anti-join and aggregate operators.
  EXPECT_GE(validated_rows, 6u);
}

TEST(CostValidationTest, EveryCorpusFileProducesCostReports) {
  for (const std::string& path : CorpusFiles()) {
    SCOPED_TRACE(path);
    const std::string sql = ReadFile(path);
    Engine engine;
    ASSERT_TRUE(engine.ExecuteScript(sql).ok());
    const Result<std::vector<QueryCostReport>> reports =
        engine.AnalyzeCost(sql);
    ASSERT_TRUE(reports.ok()) << reports.status();
    ASSERT_FALSE(reports->empty());
    for (const QueryCostReport& r : *reports) {
      EXPECT_FALSE(r.operators.empty()) << r.statement;
      EXPECT_FALSE(r.partitioning.empty());
      const std::string json = r.ToJson();
      EXPECT_EQ(json.rfind("{\"cost_model_version\":", 0), 0u) << json;
    }
  }
}

}  // namespace
}  // namespace eslev
