// Partition-key heuristic shared by ShardedEngine (routing), the static
// analyzer (shard-fallback lint rule) and the cost model (per-shard vs
// coordinator cost split). The paper's RFID queries all correlate on tag
// identity, so a stream's natural partition key is its first
// tag-identity column, falling back to column 0.

#ifndef ESLEV_PLAN_PARTITIONING_H_
#define ESLEV_PLAN_PARTITIONING_H_

#include <string>
#include <vector>

#include "plan/catalog.h"
#include "sql/ast.h"
#include "types/schema.h"

namespace eslev {

/// \brief True when `lower_name` (already lower-cased) names a
/// tag-identity column, in priority order.
bool IsTagColumn(const std::string& lower_name);

/// \brief The column index a stream with `schema` partitions on by
/// default: the first tag-identity column, else 0.
size_t DefaultPartitionKeyIndex(const SchemaPtr& schema);

/// \brief One partition-relevant FROM position: its alias and the
/// lower-cased name of the column the stream hash-partitions on by
/// default.
struct PartitionPos {
  std::string alias;
  std::string key;  // lower-cased partition column name
};

/// \brief Resolve every FROM entry (or SEQ argument) that maps to a
/// stream. Returns false when any entry is unresolvable (unknown
/// alias/stream): callers then stay silent rather than guessing.
bool ResolvePartitionPositions(const std::vector<const TableRef*>& refs,
                               const Catalog& catalog,
                               std::vector<PartitionPos>* out);

/// \brief Union-find over positions, linked by `a.key_a = b.key_b`
/// conjuncts on the respective partition keys. Returns true when all
/// positions end up in one component — the condition for hash-routing
/// the query's streams independently per shard.
bool PartitionKeyLinked(const std::vector<PartitionPos>& positions,
                        const std::vector<const Expr*>& conjuncts);

/// \brief Whether ShardedEngine can run a query hash-partitioned, or
/// must fall back to routing its source streams to a single shard.
enum class PartitionVerdict {
  kPartitionable,  // every position key-linked: shards run independently
  kSingleShard,    // pairing can cross partition keys: one shard only
  kUndecided,      // unresolvable aliases / multi-SEQ shapes: no claim
};

/// \brief A construct that can pair tuples with different partition
/// keys, so ShardedEngine must route the query's streams to one shard.
struct ShardFallbackCause {
  enum class Kind {
    kSeqPositions,  // SEQ positions not pairwise joined on their keys
    kJoin,          // joined streams not equated on their keys
    kExists,        // an EXISTS subquery not correlated on the key
  };
  Kind kind = Kind::kSeqPositions;
  /// The SEQ or EXISTS expression; null for a join (the whole SELECT).
  const Expr* expr = nullptr;
  /// kExists: the outer stream the subquery fails to correlate with.
  const TableRef* outer = nullptr;
};

/// \brief A partitioning verdict; `causes` lists every construct that
/// forces kSingleShard, and is empty for the other verdicts.
struct PartitionClassification {
  PartitionVerdict verdict = PartitionVerdict::kPartitionable;
  std::vector<ShardFallbackCause> causes;
};

/// \brief Classify one SELECT body (the verdict the shard-fallback lint
/// rule renders and the cost model's sharding split reads): SEQ
/// positions, multi-stream joins, and correlated EXISTS subqueries must
/// all correlate on the partition key to stay partitionable.
PartitionClassification ClassifyPartitioning(
    const Catalog& catalog, const SelectStmt& select,
    const std::vector<const Expr*>& conjuncts,
    const std::vector<const SeqExpr*>& seqs);

}  // namespace eslev

#endif  // ESLEV_PLAN_PARTITIONING_H_
