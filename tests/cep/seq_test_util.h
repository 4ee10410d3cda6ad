// Shared helpers for CEP tests: build SEQ operators over the paper's
// quality-check streams C1..C4 (schema readerid, tagid, tagtime).

#ifndef ESLEV_TESTS_CEP_SEQ_TEST_UTIL_H_
#define ESLEV_TESTS_CEP_SEQ_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "cep/seq_operator.h"
#include "exec/basic_ops.h"
#include "expr/binder.h"
#include "sql/parser.h"

namespace eslev {
namespace cep_test {

inline SchemaPtr ReadingSchema() {
  return Schema::Make({{"readerid", TypeId::kString},
                       {"tagid", TypeId::kString},
                       {"tagtime", TypeId::kTimestamp}});
}

inline Tuple Reading(const SchemaPtr& s, const std::string& reader,
                     const std::string& tag, Timestamp ts) {
  return *MakeTuple(
      s, {Value::String(reader), Value::String(tag), Value::Time(ts)}, ts);
}

/// Builds a SeqOperatorConfig for aliases (starred per `stars`), with a
/// default projection of every position's tagid and tagtime.
class SeqBuilder {
 public:
  explicit SeqBuilder(std::vector<std::string> aliases,
                      std::vector<bool> stars = {}) {
    schema_ = ReadingSchema();
    if (stars.empty()) stars.assign(aliases.size(), false);
    for (size_t i = 0; i < aliases.size(); ++i) {
      scope_.AddEntry({aliases[i], schema_, 0, stars[i]});
      SeqPosition p;
      p.alias = aliases[i];
      p.schema = schema_;
      p.star = stars[i];
      config_.positions.push_back(std::move(p));
    }
  }

  BoundExprPtr Bind(const std::string& text) {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    Binder binder(&scope_, &registry_);
    auto bound = binder.Bind(**parsed);
    EXPECT_TRUE(bound.ok()) << text << ": " << bound.status();
    return std::move(bound).ValueUnsafe();
  }

  SeqBuilder& Mode(PairingMode m) {
    config_.mode = m;
    return *this;
  }

  SeqBuilder& Window(Duration len, WindowDirection dir, size_t anchor) {
    SeqWindow w;
    w.length = len;
    w.direction = dir;
    w.anchor = anchor;
    config_.window = w;
    return *this;
  }

  SeqBuilder& Pairwise(size_t a, size_t b, const std::string& expr) {
    PairwiseConstraint c;
    c.pos_a = a;
    c.pos_b = b;
    c.expr = Bind(expr);
    config_.pairwise.push_back(std::move(c));
    return *this;
  }

  SeqBuilder& StarGate(size_t pos, const std::string& expr) {
    config_.star_gates.resize(config_.positions.size());
    config_.star_gates[pos] = Bind(expr);
    return *this;
  }

  SeqBuilder& ArrivalFilter(size_t pos, const std::string& expr) {
    config_.arrival_filters.resize(config_.positions.size());
    config_.arrival_filters[pos] = Bind(expr);
    return *this;
  }

  SeqBuilder& Negated(size_t pos) {
    config_.positions[pos].negated = true;
    return *this;
  }

  SeqBuilder& FinalCheck(const std::string& expr) {
    config_.final_checks.push_back(Bind(expr));
    return *this;
  }

  SeqBuilder& Project(const std::vector<std::string>& exprs,
                      std::vector<Field> out_fields) {
    config_.projection.clear();
    for (const auto& e : exprs) config_.projection.push_back(Bind(e));
    config_.out_schema = Schema::Make(std::move(out_fields));
    return *this;
  }

  SeqBuilder& PerTupleStar(int pos) {
    config_.per_tuple_star = pos;
    return *this;
  }

  std::unique_ptr<SeqOperator> Build() {
    FinishConfig();
    auto op = SeqOperator::Make(std::move(config_));
    EXPECT_TRUE(op.ok()) << op.status();
    return std::move(op).ValueUnsafe();
  }

  /// The finished configuration, for the oracle (oracle/seq_oracle.h);
  /// Build() consumes it, so read it first.
  const SeqOperatorConfig& Config() {
    FinishConfig();
    return config_;
  }

  const SchemaPtr& schema() const { return schema_; }

 private:
  void FinishConfig() {
    if (config_.projection.empty()) {
      // Default projection: tagtime of every position.
      std::vector<Field> fields;
      for (size_t i = 0; i < config_.positions.size(); ++i) {
        config_.projection.push_back(
            Bind(config_.positions[i].alias + ".tagtime"));
        fields.push_back({"t" + std::to_string(i), TypeId::kTimestamp});
      }
      config_.out_schema = Schema::Make(std::move(fields));
    }
  }

  SchemaPtr schema_;
  BindScope scope_;
  FunctionRegistry registry_;
  SeqOperatorConfig config_;
};

}  // namespace cep_test
}  // namespace eslev

#endif  // ESLEV_TESTS_CEP_SEQ_TEST_UTIL_H_
