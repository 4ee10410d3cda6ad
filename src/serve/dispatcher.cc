#include "serve/dispatcher.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace eslev {

void Dispatcher::AddTenant(const std::string& tenant, size_t max_pending,
                           BackpressurePolicy policy) {
  std::lock_guard<std::mutex> lock(mu_);
  Outbox& box = outboxes_[tenant];
  box.max_pending = max_pending;
  box.policy = policy;
  for (auto& [entry_id, routes] : routes_) {
    (void)entry_id;
    for (Route& route : routes) {
      if (route.tenant == tenant) route.box = &box;
    }
  }
}

void Dispatcher::RemoveTenant(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  outboxes_.erase(tenant);
  for (auto& [entry_id, routes] : routes_) {
    (void)entry_id;
    routes.erase(std::remove_if(routes.begin(), routes.end(),
                                [&tenant](const Route& r) {
                                  return r.tenant == tenant;
                                }),
                 routes.end());
  }
}

void Dispatcher::AddRoute(int entry_id, const std::string& tenant,
                          const std::string& query) {
  std::lock_guard<std::mutex> lock(mu_);
  auto box = outboxes_.find(tenant);
  routes_[entry_id].push_back(Route{
      tenant, query, box == outboxes_.end() ? nullptr : &box->second});
}

void Dispatcher::RemoveRoute(int entry_id, const std::string& tenant,
                             const std::string& query) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = routes_.find(entry_id);
  if (it == routes_.end()) return;
  auto& routes = it->second;
  routes.erase(std::remove_if(routes.begin(), routes.end(),
                              [&](const Route& r) {
                                return r.tenant == tenant && r.query == query;
                              }),
               routes.end());
  if (routes.empty()) routes_.erase(it);
}

void Dispatcher::OnEmission(int entry_id, const Tuple& tuple) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = routes_.find(entry_id);
  if (it == routes_.end() || it->second.empty()) {
    ++orphan_emissions_;
    return;
  }
  for (const Route& route : it->second) {
    if (route.box == nullptr) {
      ++orphan_emissions_;
      continue;
    }
    Outbox& box = *route.box;
    ++box.emitted;
    if (box.max_pending != 0 && box.pending.size() >= box.max_pending) {
      ++box.dropped;
      if (box.policy == BackpressurePolicy::kDropNewest) {
        // The refused emission still consumes a sequence number so the
        // consumer can witness the gap.
        ++box.next_seq;
        continue;
      }
      box.pending.pop_front();
    }
    ServedEmission emission;
    emission.query = route.query;
    emission.seq = box.next_seq++;
    emission.tuple = tuple;
    box.pending.push_back(std::move(emission));
  }
}

size_t Dispatcher::Drain(const std::string& tenant,
                         const std::function<void(const ServedEmission&)>& fn,
                         size_t max) {
  // Move the deliverable prefix out under the lock, then run the
  // consumer callback outside it: the callback may re-enter the server
  // (e.g. unregister a query from inside a result handler). An empty
  // outbox returns before a deque is built (a std::deque allocates on
  // construction).
  std::unique_lock<std::mutex> lock(mu_);
  auto it = outboxes_.find(tenant);
  if (it == outboxes_.end() || it->second.pending.empty()) return 0;
  Outbox& box = it->second;
  const size_t take =
      max == 0 ? box.pending.size() : std::min(box.pending.size(), max);
  std::deque<ServedEmission> batch;
  if (take == box.pending.size()) {
    batch.swap(box.pending);
  } else {
    batch.insert(batch.end(), std::make_move_iterator(box.pending.begin()),
                 std::make_move_iterator(box.pending.begin() + take));
    box.pending.erase(box.pending.begin(), box.pending.begin() + take);
  }
  box.delivered += take;
  lock.unlock();
  for (const ServedEmission& emission : batch) fn(emission);
  return batch.size();
}

size_t Dispatcher::Pending(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = outboxes_.find(tenant);
  return it == outboxes_.end() ? 0 : it->second.pending.size();
}

uint64_t Dispatcher::Dropped(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = outboxes_.find(tenant);
  return it == outboxes_.end() ? 0 : it->second.dropped;
}

void Dispatcher::AppendMetrics(MetricsSnapshot* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [tenant, box] : outboxes_) {
    const std::string prefix = "tenant." + tenant + ".";
    out->gauges[prefix + "pending"] =
        static_cast<int64_t>(box.pending.size());
    out->counters[prefix + "emitted"] += box.emitted;
    out->counters[prefix + "delivered"] += box.delivered;
    out->counters[prefix + "dropped"] += box.dropped;
  }
  out->counters["serve.orphan_emissions"] += orphan_emissions_;
}

}  // namespace eslev
