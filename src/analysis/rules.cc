// Built-in lint rules (DESIGN.md §11). Each rule is a free function over
// the LintContext; RegisterBuiltinLintRules wires them in a fixed order.
// Rules stay silent when they cannot decide — lint must never produce a
// false *error* on a query the engine runs correctly, so every
// heuristic finding is a warning and only provable defects are errors.

#include <initializer_list>
#include <map>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/cost_model.h"
#include "common/string_util.h"
#include "expr/binder.h"
#include "expr/bound_expr.h"
#include "plan/partitioning.h"
#include "plan/type_inference.h"

namespace eslev {

namespace {

Diagnostic Make(Severity severity, std::string rule, std::string message,
                SourceSpan span, std::string hint = "") {
  Diagnostic d;
  d.severity = severity;
  d.rule = std::move(rule);
  d.message = std::move(message);
  d.span = span;
  d.hint = std::move(hint);
  return d;
}

bool ContainsAnyKind(const Expr& expr, std::initializer_list<ExprKind> kinds) {
  bool found = false;
  ForEachExprIn(expr, [&](const Expr& e) {
    for (const ExprKind k : kinds) {
      if (e.kind == k) found = true;
    }
  });
  return found;
}

/// The cost-model row for the first operator whose kind matches `op`,
/// or nullptr (no cost report / no such operator).
const OperatorCost* FindCostRow(const LintContext& ctx,
                                const std::string& op) {
  if (ctx.cost == nullptr) return nullptr;
  for (const OperatorCost& row : ctx.cost->operators) {
    if (row.op == op) return &row;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// unbounded-retention
// ---------------------------------------------------------------------------

// The rule renders the SEQ-family row of the state bound (DESIGN.md
// §16), the verdict EXPLAIN COST and admission read too, so it keeps no
// purge rule of its own.

/// Why a term's position grows, and the fix, per reason.
struct ReasonText {
  const char* why;
  const char* hint;
};

ReasonText TextOf(GrowthReason reason) {
  switch (reason) {
    case GrowthReason::kNoPurgeLicense:
      return {"no purge license drops its tuples (UNRESTRICTED pairing and "
              "RECENT outside its purge rule purge nothing, and an OVER "
              "window never evicts unless it has a PRECEDING side anchored "
              "at the last position)",
              "anchor an OVER [n unit PRECEDING] window at the last SEQ "
              "position, or use a MODE clause that licenses purging (RECENT "
              "with candidates that qualify by time order alone, CHRONICLE "
              "or CONSECUTIVE)"};
    case GrowthReason::kUnmatchedRetention:
      return {"CHRONICLE pairing drops a tuple only when a match consumes "
              "it and no OVER window evicts, so unmatched tuples stay",
              "anchor an OVER [n unit PRECEDING] window at the last SEQ "
              "position to bound unmatched-tuple retention"};
    case GrowthReason::kOpenStarGroup:
      return {"its open star group grows until a later position closes it, "
              "and no window evicts an open group",
              "make sure a later position or a failing .previous. gate "
              "closes the group in time; an EXCEPTION_SEQ OVER window "
              "expires the run with its group"};
    case GrowthReason::kNegationEvidence:
      return {"the negation keeps its history as interval evidence, which "
              "only an evicting OVER window drops",
              "anchor an OVER [n unit PRECEDING] window at the last SEQ "
              "position: its eviction is the only license that drops "
              "negation evidence"};
  }
  return {"", ""};
}

/// The reason that grades a term: retention nothing ever drops (a
/// star's closed groups included) is an error; a match, a closing
/// position or an evicting window can still end the other kinds.
GrowthReason Gravest(const GrowthTerm& t) {
  return t.closed_groups == GrowthReason::kNoPurgeLicense
             ? GrowthReason::kNoPurgeLicense
             : t.reason;
}

Severity SeverityOf(GrowthReason reason) {
  return reason == GrowthReason::kNoPurgeLicense ? Severity::kError
                                                 : Severity::kWarning;
}

/// "'R1*' grows 1000 tuples/s: <why>", naming the argument as written.
std::string Clause(const SeqExpr& seq, const GrowthTerm& t) {
  const SeqArg& arg = seq.args[t.position];
  std::string out = arg.negated ? "'!" : "'";
  out += arg.stream + (arg.star ? "*" : "") + "' grows " +
         FormatCostNumber(t.per_sec) + " tuples/s: " + TextOf(t.reason).why;
  if (t.closed_groups) {
    out += "; its closed groups stay too: ";
    out += TextOf(*t.closed_groups).why;
  }
  return out;
}

void UnboundedRetentionRule(const LintContext& ctx,
                            std::vector<Diagnostic>* out) {
  const OperatorCost* row = FindCostRow(ctx, "SeqOperator");
  if (row == nullptr) row = FindCostRow(ctx, "ExceptionSeqOperator");
  // The planner lowers the statement's one SEQ-family conjunct, so a
  // SEQ row comes with exactly one SEQ in the WHERE clause.
  if (row == nullptr || row->state.growth.empty() || ctx.seqs.size() != 1) {
    return;
  }
  const SeqExpr& seq = *ctx.seqs[0];
  GrowthReason gravest = Gravest(row->state.growth.front());
  std::string clauses;
  for (const GrowthTerm& t : row->state.growth) {
    clauses += (clauses.empty() ? "" : "; ") + Clause(seq, t);
    if (Gravest(t) == GrowthReason::kNoPurgeLicense) gravest = Gravest(t);
  }
  out->push_back(Make(SeverityOf(gravest), "unbounded-retention",
                      std::string(SeqKindToString(seq.seq_kind)) +
                          " retains state without a static bound "
                          "(estimated growth " +
                          FormatCostNumber(row->state.growth_per_sec) +
                          " tuples/s at declared input rates): " + clauses,
                      seq.span, TextOf(gravest).hint));
  for (const GrowthTerm& t : row->state.growth) {
    if (t.reason != GrowthReason::kOpenStarGroup) continue;
    out->push_back(Make(SeverityOf(Gravest(t)), "unbounded-retention",
                        Clause(seq, t), seq.args[t.position].span,
                        TextOf(Gravest(t)).hint));
  }
}

// ---------------------------------------------------------------------------
// unsatisfiable-window
// ---------------------------------------------------------------------------

void UnsatisfiableWindowRule(const LintContext& ctx,
                             std::vector<Diagnostic>* out) {
  for (const SeqExpr* seq : ctx.seqs) {
    if (!seq->window.has_value()) continue;
    const WindowSpec& w = *seq->window;
    if (w.length <= 0) {
      out->push_back(Make(
          Severity::kError, "unsatisfiable-window",
          "SEQ window length is zero: the window covers a single instant "
          "and can never admit a sequence that spans time",
          w.span, "use a positive window length"));
      continue;
    }
    // Resolve the anchor position. An empty anchor defaults to the
    // position that makes the window non-vacuous (last for PRECEDING,
    // first for FOLLOWING) — the same rule the planner applies.
    int anchor = -1;
    if (w.anchor.empty()) {
      anchor = w.direction == WindowDirection::kFollowing
                   ? 0
                   : static_cast<int>(seq->args.size()) - 1;
    } else {
      for (size_t i = 0; i < seq->args.size(); ++i) {
        if (AsciiEqualsIgnoreCase(seq->args[i].stream, w.anchor)) {
          anchor = static_cast<int>(i);
          break;
        }
      }
    }
    if (anchor < 0) {
      out->push_back(Make(
          Severity::kError, "unsatisfiable-window",
          "window anchor '" + w.anchor + "' does not name a SEQ argument",
          w.span, "anchor the window at one of the SEQ argument aliases"));
      continue;
    }
    const int last = static_cast<int>(seq->args.size()) - 1;
    if (w.direction == WindowDirection::kPreceding && anchor == 0) {
      out->push_back(Make(
          Severity::kWarning, "unsatisfiable-window",
          "PRECEDING window anchored at the first SEQ argument '" +
              seq->args[0].stream +
              "' bounds no other position — nothing in the sequence precedes "
              "it, so the window neither constrains matches nor licenses "
              "purging",
          w.span,
          "anchor the window at a later argument, or use FOLLOWING"));
    } else if (w.direction == WindowDirection::kFollowing && anchor == last) {
      out->push_back(Make(
          Severity::kWarning, "unsatisfiable-window",
          "FOLLOWING window anchored at the last SEQ argument '" +
              seq->args[static_cast<size_t>(last)].stream +
              "' bounds no other position — nothing in the sequence follows "
              "it, so the window neither constrains matches nor licenses "
              "purging",
          w.span,
          "anchor the window at an earlier argument, or use PRECEDING"));
    }
  }

  // Zero-length windows on FROM references (dedup anti-joins, stream
  // windows): the window still admits simultaneous tuples, so this is a
  // warning rather than an error.
  ForEachSelect(*ctx.select, [out](const SelectStmt& sel) {
    for (const TableRef& ref : sel.from) {
      if (ref.window.has_value() && ref.window->length <= 0) {
        out->push_back(Make(
            Severity::kWarning, "unsatisfiable-window",
            "window on '" + ref.name +
                "' has length zero: it covers a single instant and only ever "
                "admits simultaneous tuples",
            ref.window->span, "use a positive window length"));
      }
    }
  });
}

// ---------------------------------------------------------------------------
// star-aggregate-misuse
// ---------------------------------------------------------------------------

void StarAggregateMisuseRule(const LintContext& ctx,
                             std::vector<Diagnostic>* out) {
  // Lower-cased SEQ argument alias -> starred?
  std::map<std::string, bool> args;
  for (const SeqExpr* seq : ctx.seqs) {
    for (const SeqArg& arg : seq->args) {
      args[AsciiToLower(arg.stream)] = arg.star;
    }
  }
  const auto check = [&](const std::string& construct,
                         const std::string& alias, const SourceSpan& span) {
    if (ctx.seqs.empty()) {
      out->push_back(Make(
          Severity::kError, "star-aggregate-misuse",
          construct + " requires a starred SEQ argument, but this query has "
                      "no SEQ operator",
          span, "use SEQ(..., " + alias + "*, ...) in the WHERE clause"));
      return;
    }
    const auto it = args.find(AsciiToLower(alias));
    if (it == args.end()) {
      out->push_back(Make(Severity::kError, "star-aggregate-misuse",
                          construct + " references '" + alias +
                              "', which is not a SEQ argument",
                          span,
                          "apply it to one of the SEQ argument aliases"));
      return;
    }
    if (!it->second) {
      out->push_back(Make(
          Severity::kError, "star-aggregate-misuse",
          construct + " references '" + alias +
              "', which is a SEQ argument but not starred — only starred "
              "arguments accumulate a group to aggregate over",
          span, "write '" + alias + "*' in the SEQ argument list"));
    }
  };
  ForEachExpr(*ctx.select, [&](const Expr& e) {
    if (e.kind == ExprKind::kStarAgg) {
      const auto& agg = static_cast<const StarAggExpr&>(e);
      check(std::string(StarAggFnToString(agg.fn)) + "(" + agg.stream + "*)",
            agg.stream, e.span);
    } else if (e.kind == ExprKind::kColumnRef) {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      if (ref.previous) {
        check("'" + ref.qualifier + ".previous." + ref.column + "'",
              ref.qualifier, e.span);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// dead-predicate
// ---------------------------------------------------------------------------

/// Constant-folds a literal-only conjunct by binding it against an empty
/// scope and evaluating it with an empty row — the exact runtime
/// semantics, so whatever the fold says, execution would agree.
Result<Value> FoldConstant(const Expr& expr, const FunctionRegistry& registry) {
  BindScope empty;
  Binder binder(&empty, &registry);
  ESLEV_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(expr));
  EvalRow row;
  return bound->Eval(row);
}

int TypeFamily(TypeId t) {
  switch (t) {
    case TypeId::kBool:
      return 0;
    case TypeId::kString:
      return 1;
    case TypeId::kInt64:
    case TypeId::kDouble:
    case TypeId::kTimestamp:
      return 2;  // mutually comparable numeric family
    case TypeId::kNull:
      break;
  }
  return -1;  // unknown: stay silent
}

/// Scope for best-effort type checks: the select's own FROM entries,
/// plus the enclosing query's entries at depth 1 for subqueries.
BindScope ScopeFor(const SelectStmt& select, const Catalog& catalog,
                   const SelectStmt* outer) {
  BindScope scope;
  const auto add = [&scope, &catalog](const SelectStmt& s, int depth) {
    for (const TableRef& ref : s.from) {
      SchemaPtr schema;
      if (const Stream* stream = catalog.FindStream(ref.name)) {
        schema = stream->schema();
      } else if (const Table* table = catalog.FindTable(ref.name)) {
        schema = table->schema();
      }
      if (schema == nullptr) continue;
      ScopeEntry entry;
      entry.alias = ref.alias;
      entry.schema = std::move(schema);
      entry.depth = depth;
      scope.AddEntry(std::move(entry));
    }
  };
  add(select, 0);
  if (outer != nullptr && outer != &select) add(*outer, 1);
  return scope;
}

void DeadPredicateRule(const LintContext& ctx, std::vector<Diagnostic>* out) {
  const FunctionRegistry& registry = ctx.catalog->registry();
  ForEachSelect(*ctx.select, [&](const SelectStmt& sel) {
    std::vector<const Expr*> conjuncts;
    FlattenConjuncts(sel.where.get(), &conjuncts);
    BindScope scope = ScopeFor(sel, *ctx.catalog, ctx.select);
    for (const Expr* c : conjuncts) {
      if (!ContainsAnyKind(*c, {ExprKind::kColumnRef, ExprKind::kStarAgg,
                                ExprKind::kExists, ExprKind::kSeq})) {
        // Literal-only conjunct: fold it.
        Result<Value> v = FoldConstant(*c, registry);
        if (!v.ok()) {
          if (v.status().code() == StatusCode::kTypeError) {
            out->push_back(Make(Severity::kError, "dead-predicate",
                                "conjunct always fails with a type error: " +
                                    v.status().message(),
                                c->span, "fix the mismatched operand types"));
          }
          continue;  // unknown function etc.: not our finding
        }
        if (v->is_null()) {
          out->push_back(Make(
              Severity::kError, "dead-predicate",
              "conjunct is constant NULL: WHERE rejects UNKNOWN, so no "
              "tuple ever passes",
              c->span, "remove the conjunct or fix the expression"));
        } else if (v->type() != TypeId::kBool) {
          out->push_back(Make(Severity::kError, "dead-predicate",
                              "conjunct is a constant " +
                                  std::string(TypeIdToString(v->type())) +
                                  ": WHERE requires a boolean",
                              c->span, "compare the value to something"));
        } else if (!v->bool_value()) {
          out->push_back(
              Make(Severity::kError, "dead-predicate",
                   "conjunct is constant FALSE: the query can never emit",
                   c->span, "remove the conjunct or fix the comparison"));
        }
        continue;
      }
      // Best-effort type coherence on plain column/literal comparisons.
      if (c->kind != ExprKind::kBinary) continue;
      const auto& b = static_cast<const BinaryExpr&>(*c);
      switch (b.op) {
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          break;
        default:
          continue;
      }
      // Function results are inferred heuristically; comparing through
      // them would risk false positives, so restrict the check to
      // column/literal/arithmetic operands.
      if (ContainsAnyKind(*c, {ExprKind::kFuncCall, ExprKind::kStarAgg,
                               ExprKind::kExists, ExprKind::kSeq})) {
        continue;
      }
      const Result<TypeId> lt = InferExprType(*b.lhs, scope, registry);
      const Result<TypeId> rt = InferExprType(*b.rhs, scope, registry);
      if (!lt.ok() || !rt.ok()) continue;
      const int lf = TypeFamily(*lt);
      const int rf = TypeFamily(*rt);
      if (lf < 0 || rf < 0 || lf == rf) continue;
      out->push_back(Make(
          Severity::kWarning, "dead-predicate",
          std::string("comparison of ") + TypeIdToString(*lt) + " with " +
              TypeIdToString(*rt) +
              " always raises a type error at runtime, which rejects the "
              "tuple",
          c->span,
          "ESL-EV compares only within a type family (numeric/timestamp, "
          "string, boolean); cast or fix one operand"));
    }
  });
}

// ---------------------------------------------------------------------------
// shard-fallback
// ---------------------------------------------------------------------------

// The rule renders the partitioning verdict (plan/partitioning.h), the
// one the cost model's sharding split reads too: one finding per
// construct that forces single-shard routing.

void ShardFallbackRule(const LintContext& ctx, std::vector<Diagnostic>* out) {
  const PartitionClassification verdict = ClassifyPartitioning(
      *ctx.catalog, *ctx.select, ctx.conjuncts, ctx.seqs);
  for (const ShardFallbackCause& cause : verdict.causes) {
    std::string message;
    switch (cause.kind) {
      case ShardFallbackCause::Kind::kSeqPositions:
        message =
            "SEQ positions are not pairwise joined on their partition keys";
        break;
      case ShardFallbackCause::Kind::kJoin:
        message = "joined streams are not equated on their partition keys";
        break;
      case ShardFallbackCause::Kind::kExists:
        message = "the EXISTS subquery does not correlate with '" +
                  cause.outer->alias + "' on the partition key";
        break;
    }
    message +=
        " — matches can pair tuples with different partition keys, "
        "so ShardedEngine must route the source streams to a single "
        "shard (SetSingleShard), forfeiting parallelism";
    if (ctx.cost != nullptr) {
      // Quantify the fallback with the cost model's per-shard split.
      message += "; estimated " +
                 FormatCostNumber(ctx.cost->single_shard_cost) +
                 " predicate evals/s on the hot shard vs " +
                 FormatCostNumber(ctx.cost->per_shard_cost) +
                 "/shard if key-partitioned across " +
                 std::to_string(ctx.cost->assumed_shards) +
                 " shards (fallback delta +" +
                 FormatCostNumber(ctx.cost->fallback_delta) + "/s)";
    }
    const SourceSpan span =
        cause.expr != nullptr ? cause.expr->span : ctx.statement->span;
    out->push_back(Make(
        Severity::kWarning, "shard-fallback", std::move(message), span,
        "join every position on the partition key (e.g. a.tagid = b.tagid), "
        "or accept single-shard routing"));
  }
}

// ---------------------------------------------------------------------------
// durability-hazard
// ---------------------------------------------------------------------------

void DurabilityHazardRule(const LintContext& ctx,
                          std::vector<Diagnostic>* out) {
  if (!ctx.insert_target.empty() &&
      ctx.catalog->FindTable(ctx.insert_target) != nullptr) {
    std::string growth;
    if (const OperatorCost* row = FindCostRow(ctx, "TableInsert")) {
      growth = " (estimated +" + FormatCostNumber(row->in_rate) +
               " rows/s at declared input rates)";
    }
    out->push_back(Make(
        Severity::kWarning, "durability-hazard",
        "INSERT INTO table '" + ctx.insert_target +
            "' accumulates every emitted row; checkpoints serialize whole "
            "tables, so checkpoint size and time grow with total input "
            "(DESIGN.md §10)" +
            growth,
        ctx.statement->span,
        "bound the table (periodic deletes) or target a stream so retention "
        "windows purge history; under replication (DESIGN.md §12) the same "
        "growth is re-paid copying each checkpoint to every standby"));
  }
  if (!ctx.select->group_by.empty() && ctx.seqs.empty() &&
      !ctx.select->from.empty()) {
    const TableRef& src = ctx.select->from[0];
    if (!src.window.has_value() &&
        ctx.catalog->FindStream(src.name) != nullptr) {
      std::string groups;
      if (const OperatorCost* row = FindCostRow(ctx, "Aggregate")) {
        if (row->state.bounded) {
          groups = " (estimated " + FormatCostNumber(row->state.tuples) +
                   " groups at declared key cardinality)";
        }
      }
      out->push_back(Make(
          Severity::kWarning, "durability-hazard",
          "GROUP BY over the unwindowed stream '" + src.name +
              "' keeps one aggregate state per distinct key forever; "
              "checkpoint size grows with key cardinality" +
              groups,
          src.span,
          "window the stream reference (OVER (RANGE n unit PRECEDING "
          "CURRENT)) so idle groups expire"));
    }
  }
}

// ---------------------------------------------------------------------------
// seq-negation-coverage
// ---------------------------------------------------------------------------

/// A negated position is checked as interval evidence between its
/// *neighbouring matched* positions (NegationOk, DESIGN.md §14). In a
/// 4+-position SEQ a mid-sequence negation therefore guards only one of
/// several inter-position gaps — authors often expect "never during the
/// whole sequence". Whether its history stays bounded is the state
/// bound's call, which unbounded-retention reports.
void SeqNegationCoverageRule(const LintContext& ctx,
                             std::vector<Diagnostic>* out) {
  for (const SeqExpr* seq : ctx.seqs) {
    const size_t n = seq->args.size();
    if (n < 4) continue;
    for (size_t i = 1; i + 1 < n; ++i) {
      const SeqArg& arg = seq->args[i];
      if (!arg.negated) continue;
      out->push_back(Make(
          Severity::kWarning, "seq-negation-coverage",
          "mid-sequence negation '!" + arg.stream + "' (position " +
              std::to_string(i + 1) + " of " + std::to_string(n) +
              ") only forbids '" + arg.stream +
              "' between its neighbouring matched positions, not across "
              "the whole sequence",
          arg.span,
          "if '" + arg.stream +
              "' must never occur during the whole sequence, split the "
              "check into a windowed NOT EXISTS over the full span; "
              "otherwise keep the negation adjacent to the positions it "
              "guards"));
    }
  }
}

// ---------------------------------------------------------------------------
// disorder-hazard
// ---------------------------------------------------------------------------

/// SEQ matching is arrival-order sensitive: a tuple that arrives after a
/// later-timestamped tuple was already consumed silently misses every
/// pairing it should have joined. When the session declares nonzero
/// input disorder (IngestOptions::declared_disorder) but no ingest
/// reorder stage covers it, any SEQ-family query over live streams is
/// at risk (DESIGN.md §15).
void DisorderHazardRule(const LintContext& ctx, std::vector<Diagnostic>* out) {
  const Duration declared = ctx.catalog->declared_disorder();
  if (declared <= 0) return;
  const Duration lateness = ctx.catalog->ingest_lateness();
  if (lateness >= declared) return;  // reorder stage absorbs it
  for (const SeqExpr* seq : ctx.seqs) {
    bool consumes_stream = false;
    for (const SeqArg& arg : seq->args) {
      if (arg.negated) continue;  // carries no tuple
      for (const TableRef& ref : ctx.select->from) {
        if (AsciiEqualsIgnoreCase(ref.alias, arg.stream) &&
            ctx.catalog->FindStream(ref.name) != nullptr) {
          consumes_stream = true;
        }
      }
    }
    if (!consumes_stream) continue;
    const std::string coverage =
        lateness == 0
            ? "no ingest reorder stage is configured"
            : "the ingest reorder bound covers only " +
                  std::to_string(lateness) + " us";
    out->push_back(Make(
        Severity::kWarning, "disorder-hazard",
        std::string(SeqKindToString(seq->seq_kind)) +
            " consumes live streams in arrival order, but this session "
            "declares input disorder up to " +
            std::to_string(declared) + " us and " + coverage +
            " — a read arriving late misses every pairing it should join",
        seq->span,
        "configure the ingest reorder stage with lateness_bound >= " +
            std::to_string(declared) +
            " us (EngineOptions::ingest.lateness_bound), or declare the "
            "input in-order"));
  }
}

// ---------------------------------------------------------------------------
// plan-error
// ---------------------------------------------------------------------------

void PlanErrorRule(const LintContext& ctx, std::vector<Diagnostic>* out) {
  if (ctx.plan != nullptr) return;
  out->push_back(Make(Severity::kError, "plan-error",
                      "the planner rejected this statement: " +
                          ctx.plan_status.message(),
                      ctx.statement->span));
}

}  // namespace

void RegisterBuiltinLintRules(QueryAnalyzer* analyzer) {
  analyzer->AddRule(UnboundedRetentionRule);
  analyzer->AddRule(UnsatisfiableWindowRule);
  analyzer->AddRule(StarAggregateMisuseRule);
  analyzer->AddRule(DeadPredicateRule);
  analyzer->AddRule(ShardFallbackRule);
  analyzer->AddRule(DurabilityHazardRule);
  analyzer->AddRule(SeqNegationCoverageRule);
  analyzer->AddRule(DisorderHazardRule);
  analyzer->AddRule(PlanErrorRule);
}

}  // namespace eslev
