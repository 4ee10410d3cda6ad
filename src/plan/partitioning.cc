#include "plan/partitioning.h"

#include <functional>
#include <numeric>

#include "common/string_util.h"
#include "plan/planner.h"

namespace eslev {

bool IsTagColumn(const std::string& lower_name) {
  return lower_name == "tag_id" || lower_name == "tagid" ||
         lower_name == "tid" || lower_name == "epc" || lower_name == "tag";
}

size_t DefaultPartitionKeyIndex(const SchemaPtr& schema) {
  for (size_t i = 0; i < schema->num_fields(); ++i) {
    if (IsTagColumn(AsciiToLower(schema->field(i).name))) return i;
  }
  return 0;
}

bool ResolvePartitionPositions(const std::vector<const TableRef*>& refs,
                               const Catalog& catalog,
                               std::vector<PartitionPos>* out) {
  for (const TableRef* ref : refs) {
    const Stream* stream = catalog.FindStream(ref->name);
    if (stream == nullptr) return false;
    const SchemaPtr& schema = stream->schema();
    PartitionPos pos;
    pos.alias = AsciiToLower(ref->alias);
    pos.key =
        AsciiToLower(schema->field(DefaultPartitionKeyIndex(schema)).name);
    out->push_back(std::move(pos));
  }
  return true;
}

bool PartitionKeyLinked(const std::vector<PartitionPos>& positions,
                        const std::vector<const Expr*>& conjuncts) {
  if (positions.size() < 2) return true;
  std::vector<size_t> root(positions.size());
  std::iota(root.begin(), root.end(), size_t{0});
  const std::function<size_t(size_t)> find = [&](size_t i) {
    while (root[i] != i) i = root[i] = root[root[i]];
    return i;
  };
  const auto index_of = [&positions](const std::string& alias) -> int {
    const std::string lower = AsciiToLower(alias);
    for (size_t i = 0; i < positions.size(); ++i) {
      if (positions[i].alias == lower) return static_cast<int>(i);
    }
    return -1;
  };
  for (const Expr* c : conjuncts) {
    if (c->kind != ExprKind::kBinary) continue;
    const auto& b = static_cast<const BinaryExpr&>(*c);
    if (b.op != BinaryOp::kEq) continue;
    if (b.lhs->kind != ExprKind::kColumnRef ||
        b.rhs->kind != ExprKind::kColumnRef) {
      continue;
    }
    const auto& l = static_cast<const ColumnRefExpr&>(*b.lhs);
    const auto& r = static_cast<const ColumnRefExpr&>(*b.rhs);
    if (l.previous || r.previous) continue;
    const int li = index_of(l.qualifier);
    const int ri = index_of(r.qualifier);
    if (li < 0 || ri < 0 || li == ri) continue;
    if (AsciiToLower(l.column) != positions[static_cast<size_t>(li)].key ||
        AsciiToLower(r.column) != positions[static_cast<size_t>(ri)].key) {
      continue;
    }
    root[find(static_cast<size_t>(li))] = find(static_cast<size_t>(ri));
  }
  const size_t first = find(0);
  for (size_t i = 1; i < positions.size(); ++i) {
    if (find(i) != first) return false;
  }
  return true;
}

PartitionClassification ClassifyPartitioning(
    const Catalog& catalog, const SelectStmt& select,
    const std::vector<const Expr*>& conjuncts,
    const std::vector<const SeqExpr*>& seqs) {
  const PartitionClassification undecided{PartitionVerdict::kUndecided, {}};
  PartitionClassification out;
  const auto single_shard = [&out](ShardFallbackCause cause) {
    out.verdict = PartitionVerdict::kSingleShard;
    out.causes.push_back(cause);
  };
  // SEQ queries: every non-negated position must be key-linked.
  if (seqs.size() == 1 && !select.from.empty()) {
    const SeqExpr& seq = *seqs[0];
    std::vector<const TableRef*> refs;
    for (const SeqArg& arg : seq.args) {
      if (arg.negated) continue;  // carries no tuple
      const TableRef* found = nullptr;
      for (const TableRef& ref : select.from) {
        if (AsciiEqualsIgnoreCase(ref.alias, arg.stream)) {
          found = &ref;
          break;
        }
      }
      if (found == nullptr) return undecided;
      refs.push_back(found);
    }
    std::vector<PartitionPos> positions;
    if (!ResolvePartitionPositions(refs, catalog, &positions)) {
      return undecided;
    }
    if (!PartitionKeyLinked(positions, conjuncts)) {
      single_shard({ShardFallbackCause::Kind::kSeqPositions, &seq});
    }
    return out;
  }
  if (!seqs.empty()) return undecided;

  // Multi-stream joins (windowed self-joins, Example 8 shapes).
  std::vector<const TableRef*> stream_refs;
  for (const TableRef& ref : select.from) {
    if (catalog.FindStream(ref.name) != nullptr) {
      stream_refs.push_back(&ref);
    }
  }
  if (stream_refs.size() >= 2) {
    std::vector<PartitionPos> positions;
    if (!ResolvePartitionPositions(stream_refs, catalog, &positions)) {
      return undecided;
    }
    if (!PartitionKeyLinked(positions, conjuncts)) {
      single_shard({ShardFallbackCause::Kind::kJoin});
    }
    return out;
  }

  // Correlated [NOT] EXISTS against a stream: the subquery must
  // correlate with the outer stream on the partition key, or the
  // anti-join sees only the local shard's slice.
  if (stream_refs.size() != 1 || select.where == nullptr) return out;
  const TableRef* outer_ref = stream_refs[0];
  ForEachExprIn(*select.where, [&](const Expr& e) {
    if (e.kind != ExprKind::kExists) return;
    const SelectStmt& sub = *static_cast<const ExistsExpr&>(e).subquery;
    if (sub.from.size() != 1) return;
    if (catalog.FindStream(sub.from[0].name) == nullptr) return;
    std::vector<PartitionPos> positions;
    if (!ResolvePartitionPositions({outer_ref, &sub.from[0]}, catalog,
                                   &positions)) {
      return;
    }
    std::vector<const Expr*> sub_conjuncts;
    FlattenConjuncts(sub.where.get(), &sub_conjuncts);
    if (!PartitionKeyLinked(positions, sub_conjuncts)) {
      single_shard({ShardFallbackCause::Kind::kExists, &e, outer_ref});
    }
  });
  return out;
}

}  // namespace eslev
