#include "plan/snapshot_executor.h"

#include <algorithm>
#include <map>

#include "plan/planner.h"
#include "plan/type_inference.h"

namespace eslev {

Result<std::vector<Tuple>> SnapshotExecutor::SourceRows(
    const TableRef& ref) const {
  std::vector<Tuple> rows;
  if (Table* table = catalog_->FindTable(ref.name)) {
    rows = table->rows();
    return rows;
  }
  if (Stream* stream = catalog_->FindStream(ref.name)) {
    if (stream->retained().empty() && stream->tuples_pushed() > 0) {
      return Status::Invalid(
          "stream '" + ref.name +
          "' retains no history for snapshot queries; configure "
          "EngineOptions::default_retention or Stream::SetRetention");
    }
    Timestamp cutoff = kMinTimestamp;
    if (ref.window) {
      if (ref.window->row_based ||
          ref.window->direction != WindowDirection::kPreceding) {
        return Status::NotImplemented(
            "snapshot stream windows must be RANGE ... PRECEDING");
      }
      cutoff = now_ - ref.window->length;
    }
    for (const Tuple& t : stream->retained()) {
      if (t.ts() >= cutoff) rows.push_back(t);
    }
    return rows;
  }
  return Status::NotFound("snapshot source not found: " + ref.name);
}

Result<std::vector<Tuple>> SnapshotExecutor::Execute(const SelectStmt& stmt) {
  OuterContext empty;
  return ExecuteInternal(stmt, empty, /*exists_only=*/false, nullptr);
}

Result<std::vector<Tuple>> SnapshotExecutor::ExecuteInternal(
    const SelectStmt& stmt, const OuterContext& outer, bool exists_only,
    bool* exists_out) {
  const FunctionRegistry& registry = catalog_->registry();
  if (stmt.from.empty()) {
    return Status::BindError("snapshot query has no FROM clause");
  }

  // Materialize sources.
  std::vector<std::vector<Tuple>> sources;
  for (const TableRef& ref : stmt.from) {
    ESLEV_ASSIGN_OR_RETURN(auto rows, SourceRows(ref));
    sources.push_back(std::move(rows));
  }
  const size_t k = sources.size();

  // Scope: inner entries (depth 0) then the outer context.
  BindScope scope;
  for (size_t i = 0; i < k; ++i) {
    SchemaPtr schema;
    if (Table* t = catalog_->FindTable(stmt.from[i].name)) {
      schema = t->schema();
    } else {
      schema = catalog_->FindStream(stmt.from[i].name)->schema();
    }
    scope.AddEntry({stmt.from[i].alias, schema, 0, false});
  }
  for (const ScopeEntry& e : outer.entries) {
    scope.AddEntry(e);
  }
  Binder binder(&scope, &registry);

  // Split conjuncts into plain predicates and EXISTS subqueries.
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(stmt.where.get(), &conjuncts);
  std::vector<BoundExprPtr> plain;
  std::vector<const ExistsExpr*> exists;
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kExists) {
      exists.push_back(static_cast<const ExistsExpr*>(c));
      continue;
    }
    if (c->kind == ExprKind::kSeq) {
      return Status::NotImplemented(
          "SEQ operators are continuous-query constructs, not snapshots");
    }
    ESLEV_ASSIGN_OR_RETURN(BoundExprPtr b, binder.Bind(*c));
    plain.push_back(std::move(b));
  }

  // Aggregates.
  std::vector<const FuncCallExpr*> agg_calls;
  for (const auto& item : stmt.items) {
    if (item.expr) CollectAggCalls(*item.expr, registry, &agg_calls);
  }
  if (stmt.having) CollectAggCalls(*stmt.having, registry, &agg_calls);
  for (const OrderKey& key : stmt.order_by) {
    CollectAggCalls(*key.expr, registry, &agg_calls);
  }

  std::map<const Expr*, size_t> agg_index;
  struct AggPlan {
    const AggregateFunction* fn;
    BoundExprPtr arg;  // null = count(*)
  };
  std::vector<AggPlan> agg_plans;
  for (const FuncCallExpr* call : agg_calls) {
    agg_index[call] = agg_plans.size();
    AggPlan plan;
    ESLEV_ASSIGN_OR_RETURN(plan.fn, registry.FindAggregate(call->name));
    if (!call->star_arg && !call->args.empty()) {
      if (call->args.size() != 1) {
        return Status::NotImplemented("aggregates take one argument");
      }
      ESLEV_ASSIGN_OR_RETURN(plan.arg, binder.Bind(*call->args[0]));
    }
    agg_plans.push_back(std::move(plan));
  }
  Binder out_binder(&scope, &registry);
  out_binder.set_aggregate_hook(
      [&agg_index](const FuncCallExpr& call) -> Result<BoundExprPtr> {
        auto it = agg_index.find(&call);
        if (it == agg_index.end()) {
          return Status::BindError("unplanned aggregate: " + call.name);
        }
        return BoundExprPtr(new BoundAggRef(it->second));
      });

  // Projection.
  std::vector<BoundExprPtr> projection;
  std::vector<Field> out_fields;
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.is_star) {
      for (size_t slot = 0; slot < k; ++slot) {
        const ScopeEntry& e = scope.entries()[slot];
        for (size_t col = 0; col < e.schema->num_fields(); ++col) {
          projection.push_back(std::make_unique<BoundColumnRef>(
              slot, col, false, e.alias));
          out_fields.push_back(
              {k > 1 ? e.alias + "_" + e.schema->field(col).name
                     : e.schema->field(col).name,
               e.schema->field(col).type});
        }
      }
      continue;
    }
    ESLEV_ASSIGN_OR_RETURN(BoundExprPtr b, out_binder.Bind(*item.expr));
    ESLEV_ASSIGN_OR_RETURN(TypeId type,
                           InferExprType(*item.expr, scope, registry));
    projection.push_back(std::move(b));
    out_fields.push_back({DeriveItemName(item, i), type});
  }
  SchemaPtr out_schema = Schema::Make(std::move(out_fields));

  // Group-by plan.
  std::vector<BoundExprPtr> group_by;
  for (const auto& g : stmt.group_by) {
    ESLEV_ASSIGN_OR_RETURN(BoundExprPtr b, binder.Bind(*g));
    group_by.push_back(std::move(b));
  }
  BoundExprPtr having;
  if (stmt.having) {
    ESLEV_ASSIGN_OR_RETURN(having, out_binder.Bind(*stmt.having));
  }
  std::vector<std::pair<BoundExprPtr, bool>> order_keys;  // expr, desc
  for (const OrderKey& key : stmt.order_by) {
    ESLEV_ASSIGN_OR_RETURN(BoundExprPtr b, out_binder.Bind(*key.expr));
    order_keys.emplace_back(std::move(b), key.descending);
  }
  std::vector<std::vector<Value>> output_sort_keys;

  // Iterate the cartesian product of the sources.
  RowScratch scratch(scope.size());
  for (size_t i = 0; i < outer.tuples.size(); ++i) {
    scratch.SetTuple(k + i, outer.tuples[i]);
  }

  struct Group {
    std::vector<std::unique_ptr<AggregateState>> states;
    std::vector<const Tuple*> representative;
  };
  std::map<std::vector<std::string>, Group> groups;
  std::vector<Tuple> output;

  std::vector<size_t> idx(k, 0);
  const bool any_empty =
      std::any_of(sources.begin(), sources.end(),
                  [](const auto& s) { return s.empty(); });

  auto eval_combo = [&]() -> Result<bool> {  // returns "stop iteration"
    for (const auto& p : plain) {
      ESLEV_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*p, scratch.Row()));
      if (!pass) return false;
    }
    for (const ExistsExpr* e : exists) {
      OuterContext next;
      next.entries.reserve(scope.size());
      for (const ScopeEntry& entry : scope.entries()) {
        ScopeEntry shifted = entry;
        shifted.depth += 1;
        next.entries.push_back(shifted);
      }
      next.tuples.reserve(scope.size());
      for (size_t s = 0; s < scope.size(); ++s) {
        next.tuples.push_back(scratch.Row().slots[s]);
      }
      bool found = false;
      ESLEV_RETURN_NOT_OK(
          ExecuteInternal(*e->subquery, next, true, &found).status());
      const bool pass = e->negated ? !found : found;
      if (!pass) return false;
    }
    if (exists_only) {
      *exists_out = true;
      return true;  // stop: one witness suffices
    }
    if (!agg_plans.empty()) {
      std::vector<std::string> key;
      for (const auto& g : group_by) {
        ESLEV_ASSIGN_OR_RETURN(Value v, g->Eval(scratch.Row()));
        key.push_back(v.GroupKey());
      }
      auto it = groups.find(key);
      if (it == groups.end()) {
        Group group;
        for (const auto& plan : agg_plans) {
          group.states.push_back(plan.fn->make_state());
        }
        it = groups.emplace(std::move(key), std::move(group)).first;
      }
      for (size_t a = 0; a < agg_plans.size(); ++a) {
        Value v = Value::Int(1);
        if (agg_plans[a].arg) {
          ESLEV_ASSIGN_OR_RETURN(v, agg_plans[a].arg->Eval(scratch.Row()));
        }
        ESLEV_RETURN_NOT_OK(it->second.states[a]->Accumulate(v));
      }
      it->second.representative.assign(scratch.Row().slots,
                                       scratch.Row().slots + scope.size());
      return false;
    }
    // Plain projection.
    Timestamp ts = 0;
    for (size_t s = 0; s < k; ++s) {
      ts = std::max(ts, scratch.Row().slots[s]->ts());
    }
    std::vector<Value> values;
    values.reserve(projection.size());
    for (const auto& p : projection) {
      ESLEV_ASSIGN_OR_RETURN(Value v, p->Eval(scratch.Row()));
      values.push_back(std::move(v));
    }
    if (!order_keys.empty()) {
      std::vector<Value> keys;
      for (const auto& [expr, desc] : order_keys) {
        ESLEV_ASSIGN_OR_RETURN(Value v, expr->Eval(scratch.Row()));
        keys.push_back(std::move(v));
      }
      output_sort_keys.push_back(std::move(keys));
    }
    ESLEV_ASSIGN_OR_RETURN(Tuple out,
                           MakeTuple(out_schema, std::move(values), ts));
    output.push_back(std::move(out));
    return false;
  };

  if (!any_empty) {
    while (true) {
      for (size_t s = 0; s < k; ++s) {
        scratch.SetTuple(s, &sources[s][idx[s]]);
      }
      ESLEV_ASSIGN_OR_RETURN(bool stop, eval_combo());
      if (stop) return output;
      // Odometer increment.
      size_t s = k;
      while (s-- > 0) {
        if (++idx[s] < sources[s].size()) break;
        idx[s] = 0;
        if (s == 0) {
          s = SIZE_MAX;
          break;
        }
      }
      if (s == SIZE_MAX) break;
    }
  }

  if (exists_only) return output;  // found nothing

  if (!agg_plans.empty()) {
    // Aggregate queries over zero qualifying rows with no GROUP BY still
    // produce one row (SQL semantics).
    if (groups.empty() && group_by.empty()) {
      Group group;
      for (const auto& plan : agg_plans) {
        group.states.push_back(plan.fn->make_state());
      }
      group.representative.assign(scope.size(), nullptr);
      groups.emplace(std::vector<std::string>{}, std::move(group));
    }
    for (const auto& [key, group] : groups) {
      std::vector<Value> agg_values;
      for (const auto& st : group.states) {
        agg_values.push_back(st->Finalize());
      }
      RowScratch out_scratch(scope.size());
      for (size_t s = 0; s < group.representative.size(); ++s) {
        out_scratch.SetTuple(s, group.representative[s]);
      }
      out_scratch.SetAggValues(&agg_values);
      if (having) {
        ESLEV_ASSIGN_OR_RETURN(bool pass,
                               EvalPredicate(*having, out_scratch.Row()));
        if (!pass) continue;
      }
      std::vector<Value> values;
      values.reserve(projection.size());
      for (const auto& p : projection) {
        ESLEV_ASSIGN_OR_RETURN(Value v, p->Eval(out_scratch.Row()));
        values.push_back(std::move(v));
      }
      if (!order_keys.empty()) {
        std::vector<Value> keys;
        for (const auto& [expr, desc] : order_keys) {
          ESLEV_ASSIGN_OR_RETURN(Value v, expr->Eval(out_scratch.Row()));
          keys.push_back(std::move(v));
        }
        output_sort_keys.push_back(std::move(keys));
      }
      ESLEV_ASSIGN_OR_RETURN(Tuple out,
                             MakeTuple(out_schema, std::move(values), now_));
      output.push_back(std::move(out));
    }
  }

  // ORDER BY: stable sort by the captured keys.
  if (!order_keys.empty() && output.size() > 1) {
    std::vector<size_t> index(output.size());
    for (size_t i = 0; i < index.size(); ++i) index[i] = i;
    std::stable_sort(index.begin(), index.end(),
                     [&](size_t a, size_t b) {
                       for (size_t kidx = 0; kidx < order_keys.size();
                            ++kidx) {
                         auto cmp = output_sort_keys[a][kidx].Compare(
                             output_sort_keys[b][kidx]);
                         const int c = cmp.ok() ? *cmp : 0;
                         if (c != 0) {
                           return order_keys[kidx].second ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
    std::vector<Tuple> sorted;
    sorted.reserve(output.size());
    for (size_t i : index) sorted.push_back(std::move(output[i]));
    output = std::move(sorted);
  }
  // LIMIT.
  if (stmt.limit >= 0 &&
      output.size() > static_cast<size_t>(stmt.limit)) {
    output.resize(static_cast<size_t>(stmt.limit));
  }
  return output;
}

}  // namespace eslev
