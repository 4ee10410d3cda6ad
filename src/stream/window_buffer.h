// WindowBuffer: the retained-tuple state behind a PRECEDING sliding
// window (RANGE of time, or ROWS count). KeyedWindowBuffer adds hash
// chains over key columns, so a probe visits only its own bucket.

#ifndef ESLEV_STREAM_WINDOW_BUFFER_H_
#define ESLEV_STREAM_WINDOW_BUFFER_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

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

/// \brief A WindowBuffer whose tuples are also chained by a hash of their
/// key columns (the partitioned event buffer of SASE): a probe walks only
/// the tuples of its bucket, newest first. The hash agrees with SQL `=`
/// (Value::KeyHash), so every tuple whose key columns are SQL-equal to a
/// probe key is in the probe's bucket; other keys sharing the bucket are
/// for the caller's key compare to reject. With no key columns every
/// tuple lands in one bucket.
///
/// Layout: tuple `i` of the window has sequence number `front_seq_ + i`.
/// `links_[i]` is the distance back to the previous tuple of its bucket
/// (0 ends the chain). Each head holds `1 + seq - base_` of its bucket's
/// newest tuple (0 = empty), where `base_` is the front's sequence number
/// at the last rebuild. The head array is a power of two sized to the
/// buffered count (load <= 1), rebuilt when the count outgrows it or
/// falls below a quarter of it. Eviction pops the front and leaves the
/// chains alone: a link or head that reaches before the front ends its
/// chain.
class KeyedWindowBuffer {
 public:
  KeyedWindowBuffer(bool row_based, int64_t length,
                    std::vector<size_t> key_columns)
      : buffer_(row_based, length),
        key_columns_(std::move(key_columns)),
        heads_(1, 0) {}

  /// \brief Append a tuple (timestamps must be non-decreasing), chain it,
  /// and evict anything that fell out of the window.
  void Add(const Tuple& tuple) {
    const uint64_t seq = front_seq_ + buffer_.size();
    if (seq - base_ >= kMaxEpoch) {
      Rebuild(heads_.size());  // keep head offsets within 32 bits
    }
    uint32_t& head = heads_[Bucket(HashOf(tuple))];
    links_.push_back(head == 0 ? 0
                               : static_cast<uint32_t>(seq - base_ + 1 - head));
    head = static_cast<uint32_t>(seq - base_ + 1);
    const size_t before = buffer_.size() + 1;
    buffer_.Add(tuple);
    DropFront(before - buffer_.size());
    Resize();
  }

  /// \brief Evict expired tuples as of `now` (heartbeats).
  void EvictAt(Timestamp now) {
    const size_t before = buffer_.size();
    buffer_.EvictAt(now);
    DropFront(before - buffer_.size());
    Resize();
  }

  /// \brief Replace the contents wholesale (checkpoint restore) and
  /// rebuild the chains.
  void Assign(std::deque<Tuple> tuples) {
    buffer_.Assign(std::move(tuples));
    links_.assign(buffer_.size(), 0);
    Rebuild(BucketsFor(buffer_.size()));
  }

  /// \brief The bucket hash of a probe whose key values are `*key[i]`,
  /// in key-column order (read in place, not copied).
  static uint64_t ProbeHash(const std::vector<const Value*>& key) {
    uint64_t h = kSeed;
    for (const Value* v : key) h = Combine(h, *v);
    return h;
  }

  /// \brief Calls `visit(tuple)` on each buffered tuple in the bucket of
  /// `hash`, newest first, while it returns true.
  template <typename Visit>
  void ForEachInBucket(uint64_t hash, Visit&& visit) const {
    const uint32_t head = heads_[Bucket(hash)];
    if (head == 0 || base_ + head - 1 < front_seq_) return;
    size_t i = static_cast<size_t>(base_ + head - 1 - front_seq_);
    while (visit(buffer_.tuples()[i])) {
      const uint32_t link = links_[i];
      if (link == 0 || link > i) return;  // chain ends or reaches evicted
      i -= link;
    }
  }

  const std::deque<Tuple>& tuples() const { return buffer_.tuples(); }
  size_t size() const { return buffer_.size(); }
  size_t bucket_count() const { return heads_.size(); }

 private:
  static constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ULL;
  static constexpr uint64_t kMaxEpoch = std::numeric_limits<uint32_t>::max();

  static uint64_t Combine(uint64_t h, const Value& v) {
    h ^= v.KeyHash() + kSeed + (h << 6) + (h >> 2);
    return h;
  }

  uint64_t HashOf(const Tuple& tuple) const {
    uint64_t h = kSeed;
    for (size_t col : key_columns_) h = Combine(h, tuple.value(col));
    return h;
  }

  size_t Bucket(uint64_t hash) const {
    hash ^= hash >> 33;  // fold the high bits into the mask
    hash *= 0xff51afd7ed558ccdULL;
    hash ^= hash >> 33;
    return static_cast<size_t>(hash) & (heads_.size() - 1);
  }

  size_t BucketsFor(size_t count) const {
    size_t n = 1;
    if (key_columns_.empty()) return n;
    while (n < count) n <<= 1;
    return n;
  }

  void DropFront(size_t n) {
    for (size_t i = 0; i < n; ++i) links_.pop_front();
    front_seq_ += n;
  }

  // Grows to load <= 1, and shrinks to load <= 1/2 once the load falls
  // below 1/4, so a count hovering near a power of two does not rebuild
  // on every arrival.
  void Resize() {
    const size_t n = buffer_.size();
    size_t want = heads_.size();
    if (n > heads_.size()) {
      want = BucketsFor(n);
    } else if (n < heads_.size() / 4) {
      want = BucketsFor(2 * n);
    }
    if (want != heads_.size()) Rebuild(want);
  }

  // Re-chains every buffered tuple into `buckets` heads and starts a new
  // epoch at the front.
  void Rebuild(size_t buckets) {
    heads_.assign(buckets, 0);
    base_ = front_seq_;
    for (size_t i = 0; i < buffer_.size(); ++i) {
      uint32_t& head = heads_[Bucket(HashOf(buffer_.tuples()[i]))];
      links_[i] = head == 0 ? 0 : static_cast<uint32_t>(i + 1 - head);
      head = static_cast<uint32_t>(i + 1);
    }
  }

  WindowBuffer buffer_;
  std::vector<size_t> key_columns_;
  std::deque<uint32_t> links_;  // parallel to buffer_.tuples()
  std::vector<uint32_t> heads_;
  uint64_t front_seq_ = 0;  // sequence number of the oldest tuple
  uint64_t base_ = 0;       // front_seq_ at the last rebuild
};

}  // namespace eslev

#endif  // ESLEV_STREAM_WINDOW_BUFFER_H_
