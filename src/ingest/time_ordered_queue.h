// TimeOrderedQueue: the release buffers of the ingest stages (DESIGN.md
// §15) — the reorder buffer, the cleaning stage's open groups and its
// hold-back queue.
//
// A binary min-heap keyed by (timestamp, sequence number). Sequence
// numbers are unique, so entries pop in exactly the order a std::map
// over the same keys would iterate them, but without a tree node per
// entry: the heap's vector keeps its capacity, so a stage in steady
// state pushes and pops without allocating.

#ifndef ESLEV_INGEST_TIME_ORDERED_QUEUE_H_
#define ESLEV_INGEST_TIME_ORDERED_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/time.h"

namespace eslev {

template <typename T>
class TimeOrderedQueue {
 public:
  struct Entry {
    Timestamp ts;
    uint64_t seq;
    T item;
  };

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// \brief The entry that pops next. Requires !empty().
  const Entry& top() const { return heap_.front(); }

  void Push(Timestamp ts, uint64_t seq, T item) {
    heap_.push_back(Entry{ts, seq, std::move(item)});
    std::push_heap(heap_.begin(), heap_.end(), After{});
  }

  /// \brief Remove and return the smallest (ts, seq). Requires !empty().
  Entry Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    return entry;
  }

  void Clear() { heap_.clear(); }

  /// \brief Every entry, in no particular order.
  const std::vector<Entry>& entries() const { return heap_; }

  /// \brief Every entry in pop order — for checkpoints, which write the
  /// buffers in key order; allocates, so not for the hot path.
  std::vector<const Entry*> Sorted() const {
    std::vector<const Entry*> sorted;
    sorted.reserve(heap_.size());
    for (const Entry& e : heap_) sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry* a, const Entry* b) { return After{}(*b, *a); });
    return sorted;
  }

 private:
  // Heap order: std::*_heap keep the greatest element in front, so "less"
  // here means "pops later".
  struct After {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.ts != b.ts ? a.ts > b.ts : a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
};

}  // namespace eslev

#endif  // ESLEV_INGEST_TIME_ORDERED_QUEUE_H_
