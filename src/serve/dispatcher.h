// Dispatcher (DESIGN.md §17): per-tenant emission routing with
// backpressure. Each physical pipeline (plan-cache entry) emits into
// one subscription callback; the dispatcher fans every emission out to
// all (tenant, query-name) subscribers of that entry, appending into
// per-tenant bounded outboxes. Tenants consume their outbox with
// Session::Drain on their own cadence; a slow tenant overflows only
// its own outbox (drop-oldest or drop-newest, counted), never stalling
// the engine or its neighbours.
//
// Thread-safety: a mutex guards routes and outboxes. Emission sources
// are either the engine's synchronous callbacks (single-threaded Push)
// or ShardedEngine::DrainOutputs on the control thread; Drain may be
// called from consumer threads.

#ifndef ESLEV_SERVE_DISPATCHER_H_
#define ESLEV_SERVE_DISPATCHER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "types/tuple.h"

namespace eslev {

/// \brief What happens when a tenant's outbox is full.
enum class BackpressurePolicy : int {
  kDropOldest = 0,  // evict the head; the tenant sees the newest data
  kDropNewest,      // refuse the append; the tenant sees a contiguous prefix
};

/// \brief One delivered query result.
struct ServedEmission {
  std::string query;  // the tenant's query name
  /// Per-tenant monotone sequence. Assigned at fan-out time, so gaps
  /// after a drain witness dropped emissions (backpressure).
  uint64_t seq = 0;
  Tuple tuple;
};

class Dispatcher {
 public:
  void AddTenant(const std::string& tenant, size_t max_pending,
                 BackpressurePolicy policy);
  void RemoveTenant(const std::string& tenant);

  /// \brief Subscribe (tenant, query-name) to pipeline `entry_id`.
  void AddRoute(int entry_id, const std::string& tenant,
                const std::string& query);
  void RemoveRoute(int entry_id, const std::string& tenant,
                   const std::string& query);

  /// \brief Fan one pipeline emission out to every subscriber. Emissions
  /// for unknown entries (a pipeline unregistered with shard outboxes
  /// still draining) are counted, not delivered.
  void OnEmission(int entry_id, const Tuple& tuple);

  /// \brief Deliver up to `max` (0 = all) pending emissions of `tenant`
  /// in order; returns the count delivered.
  size_t Drain(const std::string& tenant,
               const std::function<void(const ServedEmission&)>& fn,
               size_t max = 0);

  size_t Pending(const std::string& tenant) const;
  uint64_t Dropped(const std::string& tenant) const;

  /// \brief tenant.<id>.{pending,emitted,delivered,dropped} gauges and
  /// counters plus serve.orphan_emissions.
  void AppendMetrics(MetricsSnapshot* out) const;

 private:
  struct Outbox;
  /// A subscriber. `box` is the tenant's outbox, resolved when the route
  /// or the tenant is added (map nodes do not move), or null while the
  /// tenant has none; RemoveTenant drops the tenant's routes with it.
  struct Route {
    std::string tenant;
    std::string query;
    Outbox* box = nullptr;
  };
  struct Outbox {
    std::deque<ServedEmission> pending;
    size_t max_pending = 0;  // 0 = unbounded
    BackpressurePolicy policy = BackpressurePolicy::kDropOldest;
    uint64_t next_seq = 0;
    uint64_t emitted = 0;    // appended (before drops)
    uint64_t delivered = 0;  // drained to the consumer
    uint64_t dropped = 0;    // lost to backpressure
  };

  mutable std::mutex mu_;
  std::map<int, std::vector<Route>> routes_;  // entry_id -> subscribers
  std::map<std::string, Outbox> outboxes_;    // tenant -> outbox
  uint64_t orphan_emissions_ = 0;
};

}  // namespace eslev

#endif  // ESLEV_SERVE_DISPATCHER_H_
