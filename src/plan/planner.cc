#include "plan/planner.h"

#include <map>
#include <unordered_map>

#include "cep/exception_seq_operator.h"
#include "cep/seq_operator.h"
#include "common/string_util.h"
#include "exec/aggregate.h"
#include "exec/basic_ops.h"
#include "exec/table_ops.h"
#include "exec/windowed_not_exists.h"
#include "expr/binder.h"
#include "plan/type_inference.h"

namespace eslev {

void FlattenConjuncts(const Expr* where, std::vector<const Expr*>* out) {
  if (where == nullptr) return;
  if (where->kind == ExprKind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(*where);
    if (b.op == BinaryOp::kAnd) {
      FlattenConjuncts(b.lhs.get(), out);
      FlattenConjuncts(b.rhs.get(), out);
      return;
    }
  }
  out->push_back(where);
}

int ExprRefs::SingleSlot() const {
  int found = -1;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i]) {
      if (found >= 0) return -1;
      found = static_cast<int>(i);
    }
  }
  return found;
}

size_t ExprRefs::Count() const {
  size_t n = 0;
  for (bool b : slots) n += b;
  return n;
}

namespace {

Status CollectRefsInto(const Expr& expr, const BindScope& scope,
                       ExprRefs* refs) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return Status::OK();
    case ExprKind::kColumnRef: {
      const auto& c = static_cast<const ColumnRefExpr&>(expr);
      int slot;
      if (!c.qualifier.empty()) {
        slot = scope.FindAlias(c.qualifier);
        if (slot < 0) {
          return Status::BindError("unknown alias: " + c.qualifier);
        }
      } else {
        ESLEV_ASSIGN_OR_RETURN(auto loc, scope.ResolveColumn(c.column));
        slot = static_cast<int>(loc.first);
      }
      refs->slots[static_cast<size_t>(slot)] = true;
      if (c.previous) refs->has_previous = true;
      return Status::OK();
    }
    case ExprKind::kStarAgg: {
      const auto& s = static_cast<const StarAggExpr&>(expr);
      const int slot = scope.FindAlias(s.stream);
      if (slot < 0) return Status::BindError("unknown alias: " + s.stream);
      refs->slots[static_cast<size_t>(slot)] = true;
      refs->has_star_agg = true;
      return Status::OK();
    }
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCallExpr&>(expr);
      for (const auto& a : f.args) {
        ESLEV_RETURN_NOT_OK(CollectRefsInto(*a, scope, refs));
      }
      return Status::OK();
    }
    case ExprKind::kUnary:
      return CollectRefsInto(*static_cast<const UnaryExpr&>(expr).operand,
                             scope, refs);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      ESLEV_RETURN_NOT_OK(CollectRefsInto(*b.lhs, scope, refs));
      return CollectRefsInto(*b.rhs, scope, refs);
    }
    case ExprKind::kExists:
      refs->has_exists = true;
      return Status::OK();
    case ExprKind::kSeq:
      refs->has_seq = true;
      return Status::OK();
  }
  return Status::OK();
}

}  // namespace

void CollectAggCalls(const Expr& expr, const FunctionRegistry& registry,
                     std::vector<const FuncCallExpr*>* out) {
  switch (expr.kind) {
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCallExpr&>(expr);
      if (registry.IsAggregate(f.name)) {
        out->push_back(&f);
        return;  // nested aggregates unsupported; args handled by binder
      }
      for (const auto& a : f.args) CollectAggCalls(*a, registry, out);
      return;
    }
    case ExprKind::kUnary:
      CollectAggCalls(*static_cast<const UnaryExpr&>(expr).operand, registry,
                      out);
      return;
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      CollectAggCalls(*b.lhs, registry, out);
      CollectAggCalls(*b.rhs, registry, out);
      return;
    }
    default:
      return;
  }
}

std::string DeriveItemName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr && item.expr->kind == ExprKind::kColumnRef) {
    return static_cast<const ColumnRefExpr&>(*item.expr).column;
  }
  if (item.expr && item.expr->kind == ExprKind::kFuncCall) {
    return static_cast<const FuncCallExpr&>(*item.expr).name;
  }
  if (item.expr && item.expr->kind == ExprKind::kStarAgg) {
    const auto& s = static_cast<const StarAggExpr&>(*item.expr);
    std::string n = AsciiToLower(StarAggFnToString(s.fn));
    if (!s.column.empty()) n += "_" + s.column;
    return n;
  }
  return "col" + std::to_string(index);
}

namespace {

void DedupeFieldNames(std::vector<Field>* fields) {
  std::unordered_map<std::string, int> seen;
  for (Field& f : *fields) {
    std::string key = AsciiToLower(f.name);
    int& n = seen[key];
    if (n > 0) {
      f.name += "_" + std::to_string(n + 1);
    }
    ++n;
  }
}

// Does any select item read a starred position's columns directly
// (triggering per-tuple multiple-return, footnote 4)?
bool ReadsStarColumnsDirectly(const Expr& expr, const BindScope& scope,
                              size_t star_slot) {
  switch (expr.kind) {
    case ExprKind::kColumnRef: {
      const auto& c = static_cast<const ColumnRefExpr&>(expr);
      if (c.previous) return false;
      if (!c.qualifier.empty()) {
        return scope.FindAlias(c.qualifier) == static_cast<int>(star_slot);
      }
      auto loc = scope.ResolveColumn(c.column);
      return loc.ok() && loc->first == star_slot;
    }
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCallExpr&>(expr);
      for (const auto& a : f.args) {
        if (ReadsStarColumnsDirectly(*a, scope, star_slot)) return true;
      }
      return false;
    }
    case ExprKind::kUnary:
      return ReadsStarColumnsDirectly(
          *static_cast<const UnaryExpr&>(expr).operand, scope, star_slot);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return ReadsStarColumnsDirectly(*b.lhs, scope, star_slot) ||
             ReadsStarColumnsDirectly(*b.rhs, scope, star_slot);
    }
    default:
      return false;
  }
}

struct Projection {
  std::vector<BoundExprPtr> exprs;
  SchemaPtr schema;
};

// Bind the select list into output expressions + schema. `*` expands to
// every column of every scope entry at depth 0 (qualified names when the
// scope has several entries).
Result<Projection> BuildProjection(const SelectStmt& select,
                                   const BindScope& scope,
                                   const Binder& binder,
                                   const FunctionRegistry& registry) {
  Projection out;
  std::vector<Field> fields;
  size_t depth0_entries = 0;
  for (const auto& e : scope.entries()) {
    if (e.depth == 0) ++depth0_entries;
  }
  for (size_t i = 0; i < select.items.size(); ++i) {
    const SelectItem& item = select.items[i];
    if (item.is_star) {
      for (size_t slot = 0; slot < scope.entries().size(); ++slot) {
        const ScopeEntry& e = scope.entries()[slot];
        if (e.depth != 0 || e.negated) continue;
        for (size_t col = 0; col < e.schema->num_fields(); ++col) {
          const Field& f = e.schema->field(col);
          out.exprs.push_back(std::make_unique<BoundColumnRef>(
              slot, col, false, e.alias + "." + f.name));
          fields.push_back(
              {depth0_entries > 1 ? e.alias + "_" + f.name : f.name,
               f.type});
        }
      }
      continue;
    }
    ESLEV_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*item.expr));
    ESLEV_ASSIGN_OR_RETURN(TypeId type,
                           InferExprType(*item.expr, scope, registry));
    out.exprs.push_back(std::move(bound));
    fields.push_back({DeriveItemName(item, i), type});
  }
  DedupeFieldNames(&fields);
  out.schema = Schema::Make(std::move(fields));
  return out;
}

// The sub-query WHERE split for a keyed probe. Key pairs are the
// top-level conjuncts `inner.col = <expression over the outer tuple
// only>` (either side); every other conjunct is residual.
struct ProbeKey {
  std::string column;  // as named in the inner schema
  size_t column_index;
  const Expr* outer_expr;
};
struct ProbeSplit {
  std::vector<ProbeKey> keys;
  std::vector<const Expr*> residual;
};

std::optional<ProbeKey> AsProbeKey(const Expr* c, const BindScope& scope,
                                   const SchemaPtr& inner_schema) {
  if (c->kind != ExprKind::kBinary) return std::nullopt;
  const auto& b = static_cast<const BinaryExpr&>(*c);
  if (b.op != BinaryOp::kEq) return std::nullopt;
  for (bool flip : {false, true}) {
    const Expr* maybe_col = flip ? b.rhs.get() : b.lhs.get();
    const Expr* other = flip ? b.lhs.get() : b.rhs.get();
    if (maybe_col->kind != ExprKind::kColumnRef) continue;
    const auto& col = static_cast<const ColumnRefExpr&>(*maybe_col);
    // Must resolve to the inner entry (slot 0).
    ExprRefs col_refs;
    col_refs.slots.assign(scope.size(), false);
    if (!CollectRefsInto(*maybe_col, scope, &col_refs).ok()) continue;
    if (col_refs.SingleSlot() != 0 || col_refs.has_previous) continue;
    const int index = inner_schema->FindField(col.column);
    if (index < 0) continue;
    ExprRefs other_refs;
    other_refs.slots.assign(scope.size(), false);
    if (!CollectRefsInto(*other, scope, &other_refs).ok()) continue;
    if (other_refs.slots[0]) continue;  // must not read the inner row
    return ProbeKey{inner_schema->field(static_cast<size_t>(index)).name,
                    static_cast<size_t>(index), other};
  }
  return std::nullopt;
}

ProbeSplit FindProbe(const Expr* where, const BindScope& scope,
                     const SchemaPtr& inner_schema) {
  ProbeSplit split;
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(where, &conjuncts);
  for (const Expr* c : conjuncts) {
    if (auto key = AsProbeKey(c, scope, inner_schema)) {
      split.keys.push_back(*key);
    } else {
      split.residual.push_back(c);
    }
  }
  return split;
}

// AND-combine bound conjuncts (nullptr when empty).
BoundExprPtr CombineAnd(std::vector<BoundExprPtr> preds) {
  BoundExprPtr out;
  for (auto& p : preds) {
    if (!out) {
      out = std::move(p);
    } else {
      out = std::make_unique<BoundBinary>(BinaryOp::kAnd, std::move(out),
                                          std::move(p));
    }
  }
  return out;
}

}  // namespace

Result<ExprRefs> CollectRefs(const Expr& expr, const BindScope& scope) {
  ExprRefs refs;
  refs.slots.assign(scope.size(), false);
  ESLEV_RETURN_NOT_OK(CollectRefsInto(expr, scope, &refs));
  return refs;
}

Result<PlannedQuery> Planner::Plan(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kInsert: {
      const auto& ins = static_cast<const InsertStmt&>(stmt);
      return PlanSelectInto(*ins.select, ins.target);
    }
    case StatementKind::kSelect: {
      const auto& sel = static_cast<const SelectStatement&>(stmt);
      return PlanSelectInto(*sel.select, "");
    }
    default:
      return Status::Invalid(
          "only SELECT / INSERT statements can be planned as continuous "
          "queries");
  }
}

Result<PlannedQuery> Planner::PlanSelectInto(const SelectStmt& select,
                                             const std::string& target) {
  if (select.from.empty()) {
    return Status::BindError("query has no FROM clause");
  }
  if (!select.order_by.empty() || select.limit >= 0) {
    return Status::NotImplemented(
        "ORDER BY / LIMIT apply to snapshot queries only (a continuous "
        "query's output is unbounded)");
  }
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(select.where.get(), &conjuncts);

  // A SEQ-family conjunct routes to the CEP planner.
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kSeq) {
      return PlanSeqQuery(select, target, std::move(conjuncts));
    }
    if (c->kind == ExprKind::kBinary) {
      const auto& b = static_cast<const BinaryExpr&>(*c);
      if (b.lhs->kind == ExprKind::kSeq || b.rhs->kind == ExprKind::kSeq) {
        return PlanSeqQuery(select, target, std::move(conjuncts));
      }
    }
  }

  if (select.from.size() == 1) {
    return PlanStreamPipeline(select, target, std::move(conjuncts));
  }
  if (select.from.size() == 2) {
    return PlanStreamTableJoin(select, target, std::move(conjuncts));
  }
  return Status::NotImplemented(
      "multi-stream queries require the SEQ operator (paper §2.2: plain "
      "n-way stream joins are not the intended idiom)");
}

// ---------------------------------------------------------------------------
// Single-stream pipelines (Examples 1, 2, 3, 8)
// ---------------------------------------------------------------------------

Result<PlannedQuery> Planner::PlanStreamPipeline(
    const SelectStmt& select, const std::string& target,
    std::vector<const Expr*> conjuncts) {
  const TableRef& ref = select.from[0];
  Stream* stream = catalog_->FindStream(ref.name);
  if (stream == nullptr) {
    if (catalog_->FindTable(ref.name) != nullptr) {
      return Status::NotImplemented(
          "continuous queries read streams; use Engine::ExecuteSnapshot "
          "for table queries");
    }
    return Status::NotFound("stream not found: " + ref.name);
  }
  const FunctionRegistry& registry = catalog_->registry();

  PlannedQuery pq;
  std::vector<PlannedQuery::Subscription>& subs = pq.subscriptions;
  Operator* chain_tail = nullptr;
  auto append = [&](std::unique_ptr<Operator> op,
                    std::string note) -> Operator* {
    Operator* raw = op.get();
    if (chain_tail == nullptr) {
      subs.push_back({stream, raw, 0});
    } else {
      chain_tail->AddSink(raw, 0);
    }
    chain_tail = raw;
    pq.operators.push_back(std::move(op));
    pq.AddNote(std::move(note), raw);
    return raw;
  };
  pq.AddNote("Source: stream " + ref.name +
             (ref.alias == ref.name ? "" : " AS " + ref.alias));

  BindScope outer_scope;
  outer_scope.AddEntry({ref.alias, stream->schema(), 0, false});
  Binder outer_binder(&outer_scope, &registry);

  // Partition conjuncts: [NOT] EXISTS vs plain predicates.
  const ExistsExpr* anti = nullptr;
  std::vector<const Expr*> plain;
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kExists) {
      const auto& e = static_cast<const ExistsExpr&>(*c);
      if (!e.negated) {
        return Status::NotImplemented(
            "positive EXISTS subqueries are not supported in continuous "
            "queries");
      }
      if (anti != nullptr) {
        return Status::NotImplemented(
            "at most one NOT EXISTS subquery per continuous query");
      }
      anti = &e;
    } else {
      plain.push_back(c);
    }
  }

  bool plain_consumed = false;
  if (anti != nullptr) {
    const SelectStmt& sub = *anti->subquery;
    if (sub.from.size() != 1) {
      return Status::NotImplemented("NOT EXISTS subquery must have one "
                                    "FROM entry");
    }
    const TableRef& inner = sub.from[0];

    if (Stream* inner_stream = catalog_->FindStream(inner.name)) {
      if (!inner.window) {
        return Status::NotImplemented(
            "NOT EXISTS over a stream requires a sliding window "
            "(Example 1 / Example 8 form)");
      }
      // Validate the window anchor: CURRENT (empty) or the outer alias.
      if (!inner.window->anchor.empty() &&
          !AsciiEqualsIgnoreCase(inner.window->anchor, ref.alias)) {
        return Status::BindError(
            "cross-subquery window anchor must reference the outer tuple: " +
            inner.window->anchor);
      }
      BindScope scope;
      scope.AddEntry({inner.alias, inner_stream->schema(), 0, false});
      scope.AddEntry({ref.alias, stream->schema(), 1, false});
      Binder binder(&scope, &registry);
      const ProbeSplit split =
          FindProbe(sub.where.get(), scope, inner_stream->schema());
      std::vector<WindowedNotExistsOperator::Key> keys;
      std::string key_names;
      for (const ProbeKey& k : split.keys) {
        ESLEV_ASSIGN_OR_RETURN(BoundExprPtr outer_expr,
                               binder.Bind(*k.outer_expr));
        keys.push_back({k.column_index, std::move(outer_expr)});
        key_names += (key_names.empty() ? "" : ", ") + k.column;
      }
      std::vector<BoundExprPtr> residual;
      for (const Expr* c : split.residual) {
        ESLEV_ASSIGN_OR_RETURN(BoundExprPtr b, binder.Bind(*c));
        residual.push_back(std::move(b));
      }
      const bool same_stream = inner_stream == stream;
      BoundExprPtr outer_pred;
      if (same_stream && !plain.empty()) {
        // Outer-role predicates must run inside the operator: the inner
        // role still has to observe every tuple (Example 8).
        std::vector<BoundExprPtr> bound;
        for (const Expr* c : plain) {
          ESLEV_ASSIGN_OR_RETURN(BoundExprPtr b, binder.Bind(*c));
          bound.push_back(std::move(b));
        }
        outer_pred = CombineAnd(std::move(bound));
        plain_consumed = true;
      }
      auto op = std::make_unique<WindowedNotExistsOperator>(
          *inner.window, CombineAnd(std::move(residual)), same_stream,
          std::move(outer_pred), std::move(keys));
      if (!same_stream) {
        subs.push_back({inner_stream, op.get(), 1});
      }
      if (!plain_consumed && !plain.empty()) {
        std::vector<BoundExprPtr> bound;
        for (const Expr* c : plain) {
          ESLEV_ASSIGN_OR_RETURN(BoundExprPtr b, outer_binder.Bind(*c));
          bound.push_back(std::move(b));
        }
        append(std::make_unique<FilterOperator>(CombineAnd(std::move(bound))),
               "Filter: residual WHERE predicates");
        plain_consumed = true;
      }
      append(std::move(op),
             std::string("WindowedNotExists: anti-join vs ") + inner.name +
                 " OVER " + inner.window->ToString() +
                 (same_stream ? " (same stream, self-anti-join)" : "") +
                 (key_names.empty() ? "" : " keyed on (" + key_names + ")"));
    } else if (Table* table = catalog_->FindTable(inner.name)) {
      BindScope scope;
      scope.AddEntry({inner.alias, table->schema(), 0, false});
      scope.AddEntry({ref.alias, stream->schema(), 1, false});
      Binder binder(&scope, &registry);
      BoundExprPtr pred;
      if (sub.where) {
        ESLEV_ASSIGN_OR_RETURN(pred, binder.Bind(*sub.where));
      } else {
        pred = std::make_unique<BoundLiteral>(Value::Bool(true));
      }
      auto op = std::make_unique<TableNotExistsOperator>(table,
                                                         std::move(pred));
      const ProbeSplit split =
          FindProbe(sub.where.get(), scope, table->schema());
      const ProbeKey* probe = split.keys.empty() ? nullptr : &split.keys[0];
      if (probe != nullptr) {
        ESLEV_ASSIGN_OR_RETURN(BoundExprPtr pe,
                               binder.Bind(*probe->outer_expr));
        ESLEV_RETURN_NOT_OK(op->SetProbe(probe->column, std::move(pe)));
      }
      if (!plain.empty()) {
        std::vector<BoundExprPtr> bound;
        for (const Expr* c : plain) {
          ESLEV_ASSIGN_OR_RETURN(BoundExprPtr b, outer_binder.Bind(*c));
          bound.push_back(std::move(b));
        }
        append(std::make_unique<FilterOperator>(CombineAnd(std::move(bound))),
               "Filter: residual WHERE predicates");
        plain_consumed = true;
      }
      append(std::move(op),
             std::string("TableNotExists: anti-join vs table ") +
                 inner.name + (probe ? " (hash probe on " + probe->column +
                 ")" : " (scan)"));
    } else {
      return Status::NotFound("subquery source not found: " + inner.name);
    }
  }

  if (!plain_consumed && !plain.empty()) {
    std::vector<BoundExprPtr> bound;
    for (const Expr* c : plain) {
      ESLEV_ASSIGN_OR_RETURN(BoundExprPtr b, outer_binder.Bind(*c));
      bound.push_back(std::move(b));
    }
    append(std::make_unique<FilterOperator>(CombineAnd(std::move(bound))),
           "Filter: WHERE predicates");
  }

  // Aggregates?
  std::vector<const FuncCallExpr*> agg_calls;
  for (const auto& item : select.items) {
    if (item.expr) CollectAggCalls(*item.expr, registry, &agg_calls);
  }
  if (select.having) CollectAggCalls(*select.having, registry, &agg_calls);

  if (!agg_calls.empty()) {
    std::map<const Expr*, size_t> agg_index;
    std::vector<AggSpec> specs;
    for (const FuncCallExpr* call : agg_calls) {
      agg_index[call] = specs.size();
      AggSpec spec;
      ESLEV_ASSIGN_OR_RETURN(spec.fn, registry.FindAggregate(call->name));
      if (call->star_arg || call->args.empty()) {
        spec.count_star = true;
      } else if (call->args.size() == 1) {
        ESLEV_ASSIGN_OR_RETURN(spec.arg, outer_binder.Bind(*call->args[0]));
      } else {
        return Status::NotImplemented("aggregates take one argument");
      }
      specs.push_back(std::move(spec));
    }
    Binder agg_binder(&outer_scope, &registry);
    agg_binder.set_aggregate_hook(
        [&agg_index](const FuncCallExpr& call) -> Result<BoundExprPtr> {
          auto it = agg_index.find(&call);
          if (it == agg_index.end()) {
            return Status::BindError("unplanned aggregate call: " +
                                     call.name);
          }
          return BoundExprPtr(new BoundAggRef(it->second));
        });
    std::vector<BoundExprPtr> group_by;
    for (const auto& g : select.group_by) {
      ESLEV_ASSIGN_OR_RETURN(BoundExprPtr b, outer_binder.Bind(*g));
      group_by.push_back(std::move(b));
    }
    BoundExprPtr having;
    if (select.having) {
      ESLEV_ASSIGN_OR_RETURN(having, agg_binder.Bind(*select.having));
    }
    ESLEV_ASSIGN_OR_RETURN(
        Projection proj,
        BuildProjection(select, outer_scope, agg_binder, registry));
    std::optional<WindowSpec> window = ref.window;
    if (window && window->direction != WindowDirection::kPreceding) {
      return Status::NotImplemented(
          "aggregation windows must be PRECEDING");
    }
    pq.output_schema = proj.schema;
    std::string agg_note = "Aggregate:";
    for (const FuncCallExpr* call : agg_calls) {
      agg_note += " " + call->ToString();
    }
    if (!select.group_by.empty()) agg_note += " GROUP BY ...";
    if (window) agg_note += " OVER " + window->ToString();
    append(std::make_unique<AggregateOperator>(
               std::move(specs), std::move(group_by), std::move(proj.exprs),
               std::move(having), proj.schema, window),
           std::move(agg_note));
  } else {
    if (!select.group_by.empty() || select.having) {
      return Status::BindError("GROUP BY / HAVING require aggregates");
    }
    ESLEV_ASSIGN_OR_RETURN(
        Projection proj,
        BuildProjection(select, outer_scope, outer_binder, registry));
    pq.output_schema = proj.schema;
    // `SELECT *` with no reshaping is the identity: skip the operator.
    const bool identity =
        select.items.size() == 1 && select.items[0].is_star;
    if (!identity) {
      append(std::make_unique<ProjectOperator>(std::move(proj.exprs),
                                               proj.schema),
             "Project: " + proj.schema->ToString());
    } else if (chain_tail == nullptr) {
      // Pure pass-through (`SELECT * FROM s`): materialize as a filter
      // that always passes, to give the pipeline a tail.
      append(std::make_unique<FilterOperator>(
                 std::make_unique<BoundLiteral>(Value::Bool(true))),
             "PassThrough: SELECT *");
    }
  }

  // INSERT INTO a table ends the pipeline with a TableInsertOperator.
  pq.target = target;
  if (!target.empty()) {
    if (Table* table = catalog_->FindTable(target)) {
      pq.target_is_table = true;
      if (pq.output_schema->num_fields() != table->schema()->num_fields()) {
        return Status::BindError("INSERT arity does not match table " +
                                 target);
      }
      append(std::make_unique<TableInsertOperator>(
                 table, std::vector<BoundExprPtr>{}),
             "TableInsert: INTO " + target);
    } else if (Stream* out = catalog_->FindStream(target)) {
      if (pq.output_schema->num_fields() != out->schema()->num_fields()) {
        return Status::BindError("INSERT arity does not match stream " +
                                 target);
      }
    } else {
      return Status::NotFound("INSERT target not found: " + target);
    }
  }

  pq.tail = chain_tail;
  return pq;
}

// ---------------------------------------------------------------------------
// Stream-table context retrieval join (§2.1)
// ---------------------------------------------------------------------------

Result<PlannedQuery> Planner::PlanStreamTableJoin(
    const SelectStmt& select, const std::string& target,
    std::vector<const Expr*> conjuncts) {
  const FunctionRegistry& registry = catalog_->registry();
  // Identify which FROM entry is the stream and which the table.
  const TableRef* stream_ref = nullptr;
  const TableRef* table_ref = nullptr;
  for (const TableRef& r : select.from) {
    if (catalog_->FindStream(r.name) != nullptr) {
      stream_ref = &r;
    } else if (catalog_->FindTable(r.name) != nullptr) {
      table_ref = &r;
    }
  }
  if (stream_ref == nullptr || table_ref == nullptr) {
    return Status::NotImplemented(
        "two-entry FROM clauses must join one stream with one table "
        "(context retrieval); multi-stream patterns use SEQ");
  }
  Stream* stream = catalog_->FindStream(stream_ref->name);
  Table* table = catalog_->FindTable(table_ref->name);

  BindScope scope;
  scope.AddEntry({table_ref->alias, table->schema(), 0, false});
  scope.AddEntry({stream_ref->alias, stream->schema(), 0, false});
  Binder binder(&scope, &registry);

  std::vector<BoundExprPtr> bound;
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kExists) {
      return Status::NotImplemented(
          "NOT EXISTS inside stream-table joins is not supported");
    }
    ESLEV_ASSIGN_OR_RETURN(BoundExprPtr b, binder.Bind(*c));
    bound.push_back(std::move(b));
  }
  BoundExprPtr pred = CombineAnd(std::move(bound));

  ESLEV_ASSIGN_OR_RETURN(Projection proj,
                         BuildProjection(select, scope, binder, registry));

  PlannedQuery pq;
  pq.output_schema = proj.schema;
  auto op = std::make_unique<StreamTableJoinOperator>(
      table, std::move(pred), std::move(proj.exprs), proj.schema);
  // Probe optimization on the join predicate.
  const ProbeSplit split = FindProbe(select.where.get(), scope,
                                    table->schema());
  if (!split.keys.empty()) {
    const ProbeKey& probe = split.keys[0];
    ESLEV_ASSIGN_OR_RETURN(BoundExprPtr pe, binder.Bind(*probe.outer_expr));
    ESLEV_RETURN_NOT_OK(op->SetProbe(probe.column, std::move(pe)));
  }
  pq.AddNote("Source: stream " + stream_ref->name);
  pq.AddNote("StreamTableJoin: context retrieval vs table " + table_ref->name,
             op.get());
  pq.subscriptions.push_back({stream, op.get(), 1});
  pq.tail = op.get();
  pq.operators.push_back(std::move(op));

  pq.target = target;
  if (!target.empty()) {
    if (Table* t = catalog_->FindTable(target)) {
      pq.target_is_table = true;
      auto insert = std::make_unique<TableInsertOperator>(
          t, std::vector<BoundExprPtr>{});
      pq.tail->AddSink(insert.get(), 0);
      pq.tail = insert.get();
      pq.AddNote("TableInsert: INTO " + target, insert.get());
      pq.operators.push_back(std::move(insert));
    } else if (catalog_->FindStream(target) == nullptr) {
      return Status::NotFound("INSERT target not found: " + target);
    }
  }
  return pq;
}

// ---------------------------------------------------------------------------
// SEQ / EXCEPTION_SEQ / CLEVEL_SEQ queries (§3.1)
// ---------------------------------------------------------------------------

Result<PlannedQuery> Planner::PlanSeqQuery(
    const SelectStmt& select, const std::string& target,
    std::vector<const Expr*> conjuncts) {
  const FunctionRegistry& registry = catalog_->registry();

  // Locate the SEQ conjunct (or CLEVEL_SEQ comparison).
  const SeqExpr* seq = nullptr;
  BinaryOp level_op = BinaryOp::kLt;
  int64_t level_rhs = 0;
  bool has_level_cmp = false;
  std::vector<const Expr*> rest;
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kSeq) {
      if (seq != nullptr) {
        return Status::NotImplemented("one SEQ operator per query");
      }
      seq = static_cast<const SeqExpr*>(c);
      continue;
    }
    if (c->kind == ExprKind::kBinary) {
      const auto& b = static_cast<const BinaryExpr&>(*c);
      const bool lhs_seq = b.lhs->kind == ExprKind::kSeq;
      const bool rhs_seq = b.rhs->kind == ExprKind::kSeq;
      if (lhs_seq || rhs_seq) {
        const auto& s = static_cast<const SeqExpr&>(lhs_seq ? *b.lhs : *b.rhs);
        const Expr& other = lhs_seq ? *b.rhs : *b.lhs;
        if (s.seq_kind != SeqKind::kClevelSeq) {
          return Status::BindError(
              "SEQ/EXCEPTION_SEQ are boolean predicates and cannot be "
              "compared; only CLEVEL_SEQ returns a level");
        }
        if (other.kind != ExprKind::kLiteral) {
          return Status::NotImplemented(
              "CLEVEL_SEQ must be compared against an integer literal");
        }
        ESLEV_ASSIGN_OR_RETURN(
            level_rhs,
            static_cast<const LiteralExpr&>(other).value.AsInt64());
        level_op = b.op;
        if (rhs_seq) {
          // k <op> CLEVEL: mirror the comparison.
          switch (b.op) {
            case BinaryOp::kLt:
              level_op = BinaryOp::kGt;
              break;
            case BinaryOp::kLe:
              level_op = BinaryOp::kGe;
              break;
            case BinaryOp::kGt:
              level_op = BinaryOp::kLt;
              break;
            case BinaryOp::kGe:
              level_op = BinaryOp::kLe;
              break;
            default:
              break;
          }
        }
        if (seq != nullptr) {
          return Status::NotImplemented("one SEQ operator per query");
        }
        seq = &s;
        has_level_cmp = true;
        continue;
      }
    }
    rest.push_back(c);
  }
  if (seq == nullptr) {
    return Status::BindError("no SEQ conjunct found (planner bug)");
  }
  if (seq->seq_kind == SeqKind::kClevelSeq && !has_level_cmp) {
    return Status::BindError(
        "CLEVEL_SEQ must appear in a comparison (e.g. CLEVEL_SEQ(...) < 3)");
  }

  // Resolve positions: each SEQ argument names a FROM alias bound to a
  // stream.
  std::map<std::string, const TableRef*> from_map;
  for (const TableRef& r : select.from) {
    from_map[AsciiToLower(r.alias)] = &r;
  }
  const size_t n = seq->args.size();
  std::vector<SeqPosition> positions;
  std::vector<Stream*> streams;
  BindScope scope;
  for (const SeqArg& arg : seq->args) {
    auto it = from_map.find(AsciiToLower(arg.stream));
    if (it == from_map.end()) {
      return Status::BindError("SEQ argument is not in the FROM clause: " +
                               arg.stream);
    }
    Stream* s = catalog_->FindStream(it->second->name);
    if (s == nullptr) {
      return Status::BindError("SEQ arguments must be streams: " +
                               it->second->name);
    }
    SeqPosition position;
    position.alias = arg.stream;
    position.schema = s->schema();
    position.star = arg.star;
    position.negated = arg.negated;
    positions.push_back(std::move(position));
    streams.push_back(s);
    ScopeEntry entry;
    entry.alias = arg.stream;
    entry.schema = s->schema();
    entry.depth = 0;
    entry.star = arg.star;
    entry.negated = arg.negated;
    scope.AddEntry(std::move(entry));
  }
  if (positions.front().negated || positions.back().negated) {
    return Status::Invalid(
        "the first and last SEQ arguments cannot be negated (a negative "
        "event needs neighbours to bound its interval)");
  }

  // Window.
  std::optional<SeqWindow> window;
  if (seq->window) {
    if (seq->window->row_based) {
      return Status::NotImplemented("SEQ windows are time-based");
    }
    SeqWindow w;
    w.length = seq->window->length;
    w.direction = seq->window->direction;
    if (seq->window->anchor.empty()) {
      w.anchor = seq->window->direction == WindowDirection::kFollowing
                     ? 0
                     : n - 1;
    } else {
      const int a = scope.FindAlias(seq->window->anchor);
      if (a < 0) {
        return Status::BindError("window anchor is not a SEQ argument: " +
                                 seq->window->anchor);
      }
      w.anchor = static_cast<size_t>(a);
    }
    window = w;
  }

  // Classify the remaining conjuncts.
  Binder binder(&scope, &registry);
  std::vector<BoundExprPtr> arrival_filters(n);
  std::vector<BoundExprPtr> star_gates(n);
  std::vector<PairwiseConstraint> pairwise;
  std::vector<BoundExprPtr> final_checks;
  for (const Expr* c : rest) {
    ESLEV_ASSIGN_OR_RETURN(ExprRefs refs, CollectRefs(*c, scope));
    if (refs.has_exists || refs.has_seq) {
      return Status::NotImplemented(
          "subqueries cannot be combined with SEQ in one WHERE clause");
    }
    ESLEV_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.Bind(*c));
    if (refs.has_previous) {
      const int pos = refs.SingleSlot();
      if (pos < 0) {
        return Status::NotImplemented(
            "`.previous.` constraints must reference one position");
      }
      if (!positions[pos].star) {
        return Status::BindError("`.previous.` requires a starred argument");
      }
      if (star_gates[pos]) {
        star_gates[pos] = std::make_unique<BoundBinary>(
            BinaryOp::kAnd, std::move(star_gates[pos]), std::move(bound));
      } else {
        star_gates[pos] = std::move(bound);
      }
      continue;
    }
    // A negated argument never carries a tuple, so it may only appear
    // in its own per-arrival conditions.
    bool touches_negated = false;
    for (size_t s = 0; s < refs.slots.size(); ++s) {
      if (refs.slots[s] && positions[s].negated) touches_negated = true;
    }
    const int single = refs.SingleSlot();
    if (touches_negated && !(single >= 0 && positions[single].negated &&
                             !refs.has_star_agg && !refs.has_previous)) {
      return Status::BindError(
          "negated SEQ arguments can only appear in per-position "
          "conditions: " + c->ToString());
    }
    if (single >= 0 && !refs.has_star_agg) {
      if (arrival_filters[single]) {
        arrival_filters[single] = std::make_unique<BoundBinary>(
            BinaryOp::kAnd, std::move(arrival_filters[single]),
            std::move(bound));
      } else {
        arrival_filters[single] = std::move(bound);
      }
      continue;
    }
    if (refs.Count() == 2) {
      size_t a = 0, b = 0;
      bool first = true;
      for (size_t i = 0; i < refs.slots.size(); ++i) {
        if (!refs.slots[i]) continue;
        if (first) {
          a = i;
          first = false;
        } else {
          b = i;
        }
      }
      pairwise.push_back({a, b, std::move(bound)});
      continue;
    }
    final_checks.push_back(std::move(bound));
  }

  // Projection (+ per-tuple star detection). Negated arguments cannot be
  // projected — they have no tuple.
  for (const auto& item : select.items) {
    if (!item.expr) continue;
    ESLEV_ASSIGN_OR_RETURN(ExprRefs refs, CollectRefs(*item.expr, scope));
    for (size_t s = 0; s < refs.slots.size(); ++s) {
      if (refs.slots[s] && positions[s].negated) {
        return Status::BindError(
            "cannot project a negated SEQ argument: " +
            item.expr->ToString());
      }
    }
  }
  ESLEV_ASSIGN_OR_RETURN(Projection proj,
                         BuildProjection(select, scope, binder, registry));
  int per_tuple_star = -1;
  for (size_t slot = 0; slot < positions.size(); ++slot) {
    if (!positions[slot].star) continue;
    for (const auto& item : select.items) {
      if (item.is_star ||
          (item.expr && ReadsStarColumnsDirectly(*item.expr, scope, slot))) {
        per_tuple_star = static_cast<int>(slot);
        break;
      }
    }
  }

  PlannedQuery pq;
  pq.output_schema = proj.schema;
  Operator* op_raw = nullptr;

  pq.AddNote(std::string("Source: streams of ") + seq->ToString());
  std::string seq_note =
      std::string(seq->seq_kind == SeqKind::kSeq ? "SeqOperator: "
                                                 : "ExceptionSeqOperator: ") +
      seq->ToString() + ", " + std::to_string(pairwise.size()) +
      " pairwise constraint(s), " + std::to_string(final_checks.size()) +
      " final check(s)";
  if (seq->seq_kind == SeqKind::kSeq) {
    SeqOperatorConfig config;
    config.positions = std::move(positions);
    config.mode = seq->mode;
    config.window = window;
    config.arrival_filters = std::move(arrival_filters);
    config.star_gates = std::move(star_gates);
    config.pairwise = std::move(pairwise);
    config.final_checks = std::move(final_checks);
    config.projection = std::move(proj.exprs);
    config.out_schema = proj.schema;
    config.per_tuple_star = per_tuple_star;
    ESLEV_ASSIGN_OR_RETURN(auto op, SeqOperator::Make(std::move(config)));
    const std::string keys = op->KeyDescription();
    if (!keys.empty()) seq_note += ", keyed on (" + keys + ")";
    op_raw = op.get();
    pq.operators.push_back(std::move(op));
  } else {
    if (!final_checks.empty()) {
      return Status::NotImplemented(
          "EXCEPTION_SEQ supports per-position and pairwise conditions "
          "only");
    }
    for (const auto& p : positions) {
      if (p.negated) {
        return Status::NotImplemented(
            "negated arguments are not supported in EXCEPTION_SEQ");
      }
    }
    ExceptionSeqConfig config;
    config.positions = std::move(positions);
    config.mode =
        seq->mode_explicit ? seq->mode : PairingMode::kConsecutive;
    config.window = window;
    config.arrival_filters = std::move(arrival_filters);
    config.star_gates = std::move(star_gates);
    config.pairwise = std::move(pairwise);
    config.projection = std::move(proj.exprs);
    config.out_schema = proj.schema;
    if (seq->seq_kind == SeqKind::kExceptionSeq) {
      config.level_op = BinaryOp::kLt;
      config.level_rhs = static_cast<int64_t>(n);
    } else {
      config.level_op = level_op;
      config.level_rhs = level_rhs;
    }
    ESLEV_ASSIGN_OR_RETURN(auto op,
                           ExceptionSeqOperator::Make(std::move(config)));
    op_raw = op.get();
    pq.operators.push_back(std::move(op));
  }

  pq.AddNote(seq_note, op_raw);
  for (size_t i = 0; i < streams.size(); ++i) {
    pq.subscriptions.push_back({streams[i], op_raw, i});
  }
  pq.tail = op_raw;

  pq.target = target;
  if (!target.empty()) {
    if (Table* table = catalog_->FindTable(target)) {
      pq.target_is_table = true;
      if (pq.output_schema->num_fields() != table->schema()->num_fields()) {
        return Status::BindError("INSERT arity does not match table " +
                                 target);
      }
      auto insert = std::make_unique<TableInsertOperator>(
          table, std::vector<BoundExprPtr>{});
      pq.tail->AddSink(insert.get(), 0);
      pq.tail = insert.get();
      pq.AddNote("TableInsert: INTO " + target, insert.get());
      pq.operators.push_back(std::move(insert));
    } else if (Stream* out = catalog_->FindStream(target)) {
      if (pq.output_schema->num_fields() != out->schema()->num_fields()) {
        return Status::BindError("INSERT arity does not match stream " +
                                 target);
      }
    } else {
      return Status::NotFound("INSERT target not found: " + target);
    }
  }
  return pq;
}

}  // namespace eslev
