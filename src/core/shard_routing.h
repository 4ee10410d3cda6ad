// The rules that fix one shard's history (DESIGN.md §8, §12): which
// shard owns a tuple, and in what order a shard engine applies what it
// owns. The ShardedEngine coordinator routes live input and its shard
// workers apply it with these; a hot standby filters and applies the
// shipped WAL with the same ones, so a replica rebuilds exactly the
// joint history of the shard it mirrors.

#ifndef ESLEV_CORE_SHARD_ROUTING_H_
#define ESLEV_CORE_SHARD_ROUTING_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/string_util.h"
#include "core/engine.h"

namespace eslev {

/// \brief How one stream is partitioned: the key column whose
/// Value::Hash picks the shard, or shard 0 for a stream whose matches
/// cross partitions (ShardedEngine::SetSingleShard).
struct StreamRoute {
  std::string name;  // original-case stream name (stable storage)
  SchemaPtr schema;
  size_t key_index = 0;
  bool single_shard = false;
};

/// \brief Every stream's route, over a fixed shard count. A value type:
/// a standby takes a copy of the primary's table.
struct ShardRouting {
  size_t num_shards = 1;
  /// Keyed by lower-case stream name, found by any spelling of it. Map
  /// nodes are stable, so route pointers survive later inserts.
  std::map<std::string, StreamRoute, AsciiCaseLess> routes;

  const StreamRoute* Find(const std::string& stream) const;

  /// \brief Invalid when `tuple` has no partition key column.
  Status CheckKey(const StreamRoute& route, const Tuple& tuple) const;

  /// \brief The shard that owns `tuple`; CheckKey must have passed.
  size_t ShardOf(const StreamRoute& route, const Tuple& tuple) const {
    if (route.single_shard || num_shards <= 1) return 0;
    return tuple.value(route.key_index).Hash() % num_shards;
  }
};

/// \brief Apply one routed tuple to a shard engine in queue (or WAL)
/// order. A tuple behind the engine clock is applied at the clock, so
/// the shard's joint history stays totally ordered however producers
/// interleave.
inline Status ApplyShardTuple(Engine& engine, const std::string& stream,
                              const Tuple& tuple) {
  if (tuple.ts() >= engine.current_time()) {
    return engine.PushTuple(stream, tuple);
  }
  Tuple clamped = tuple;
  clamped.set_ts(engine.current_time());
  return engine.PushTuple(stream, clamped);
}

/// \brief Apply one fanned heartbeat to a shard engine. A tick behind
/// the engine clock is stale and dropped.
inline Status ApplyShardHeartbeat(Engine& engine, Timestamp ts) {
  if (ts < engine.current_time()) return Status::OK();
  return engine.AdvanceTime(ts);
}

}  // namespace eslev

#endif  // ESLEV_CORE_SHARD_ROUTING_H_
