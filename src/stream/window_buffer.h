// WindowBuffer: the retained-tuple state behind a PRECEDING sliding
// window (RANGE of time, or ROWS count).

#ifndef ESLEV_STREAM_WINDOW_BUFFER_H_
#define ESLEV_STREAM_WINDOW_BUFFER_H_

#include <deque>

#include "common/time.h"
#include "types/tuple.h"

namespace eslev {

/// \brief Holds the tuples of a PRECEDING window.
///
/// Time windows are *inclusive*: at current time T with length L the
/// window covers timestamps in [T - L, T] (the paper's duplicate filter
/// treats a reading exactly 1 second earlier as a duplicate).
class WindowBuffer {
 public:
  WindowBuffer(bool row_based, int64_t length)
      : row_based_(row_based), length_(length) {}

  /// \brief Append a tuple (timestamps must be non-decreasing) and evict
  /// anything that fell out of the window.
  void Add(const Tuple& tuple) {
    tuples_.push_back(tuple);
    EvictAt(tuple.ts());
  }

  /// \brief Evict expired tuples as of `now` (heartbeats).
  void EvictAt(Timestamp now) {
    if (row_based_) {
      while (tuples_.size() > static_cast<size_t>(length_)) {
        tuples_.pop_front();
      }
    } else {
      while (!tuples_.empty() && tuples_.front().ts() < now - length_) {
        tuples_.pop_front();
      }
    }
  }

  /// \brief Replace the contents wholesale (checkpoint restore). Bypasses
  /// eviction: the tuples were already within the window when saved.
  void Assign(std::deque<Tuple> tuples) { tuples_ = std::move(tuples); }

  const std::deque<Tuple>& tuples() const { return tuples_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  void Clear() { tuples_.clear(); }

  bool row_based() const { return row_based_; }
  int64_t length() const { return length_; }

 private:
  bool row_based_;
  int64_t length_;
  std::deque<Tuple> tuples_;
};

}  // namespace eslev

#endif  // ESLEV_STREAM_WINDOW_BUFFER_H_
