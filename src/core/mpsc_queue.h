// MpscQueue: the multi-producer single-consumer mailbox feeding each
// ShardedEngine worker. Producers append under a short critical section;
// the worker drains the whole backlog in one swap, so the per-tuple lock
// cost is O(1) enqueue plus amortized O(1/batch) dequeue, and no lock is
// held while the pipeline runs.
//
// Wake rule (DESIGN.md §8): a data item does not wake a sleeping
// consumer. A control item, kWakeThreshold waiting items, Publish(),
// WaitIdle() and Close() do. The consumer records that it sleeps under
// the mutex and the first notifier clears the record, so a sleep costs
// at most one notification; wakeups() counts them.

#ifndef ESLEV_CORE_MPSC_QUEUE_H_
#define ESLEV_CORE_MPSC_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace eslev {

template <typename T>
class MpscQueue {
 public:
  /// Waiting items at which a data push wakes a sleeping consumer.
  static constexpr size_t kWakeThreshold = 64;

  /// \brief Enqueue a data item. It wakes a sleeping consumer only when
  /// it makes kWakeThreshold items wait. Silently drops after Close()
  /// (shutdown is owner-driven; producers must stop before the owner
  /// closes).
  void Push(T item) { Enqueue(std::move(item), /*control=*/false); }

  /// \brief Enqueue a control item (a heartbeat or a worker command),
  /// waking a sleeping consumer.
  void PushControl(T item) { Enqueue(std::move(item), /*control=*/true); }

  /// \brief Wake a sleeping consumer if items are waiting.
  void Publish() {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wake = ClaimWakeLocked();
    }
    if (wake) cv_.notify_one();
  }

  /// \brief Consumer side: block until items exist or the queue is
  /// closed, then take the whole backlog. Returns false when closed and
  /// fully drained (worker should exit).
  bool PopAll(std::vector<T>* out) {
    std::unique_lock<std::mutex> lock(mu_);
    // The previous batch (if any) is now fully processed.
    draining_ = false;
    if (items_.empty()) idle_cv_.notify_all();
    while (items_.empty() && !closed_) {
      sleeping_ = true;
      cv_.wait(lock);
    }
    sleeping_ = false;
    if (items_.empty()) return false;
    out->clear();
    out->swap(items_);
    draining_ = true;
    return true;
  }

  /// \brief Publish, then block until the queue is empty AND the
  /// consumer has finished processing its current batch (or the queue
  /// is closed).
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    if (ClaimWakeLocked()) cv_.notify_one();
    idle_cv_.wait(lock, [&] { return (items_.empty() && !draining_) || closed_; });
  }

  /// \brief Close; the consumer wakes, drains the backlog and exits.
  void Close() { CloseAndMaybeDrop(/*drop=*/false); }

  /// \brief Close AND drop the queued backlog (crash simulation: input
  /// sitting in a dead worker's mailbox is lost, exactly like input in a
  /// crashed process's memory). The consumer exits at its next PopAll.
  void CloseNow() { CloseAndMaybeDrop(/*drop=*/true); }

  /// \brief Reset a closed queue for reuse after its consumer thread has
  /// exited and been joined (standby promotion restarts the worker).
  void Reopen() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = false;
    draining_ = false;
    sleeping_ = false;
    items_.clear();
  }

  size_t ApproxSize() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  /// \brief Notifications sent to the consumer so far.
  uint64_t wakeups() const {
    std::lock_guard<std::mutex> lock(mu_);
    return wakeups_;
  }

 private:
  void Enqueue(T item, bool control) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return;
      items_.push_back(std::move(item));
      if (control || items_.size() >= kWakeThreshold) wake = ClaimWakeLocked();
    }
    if (wake) cv_.notify_one();
  }

  void CloseAndMaybeDrop(bool drop) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      if (drop) items_.clear();
      wake = ClaimWakeLocked();
    }
    if (wake) cv_.notify_one();
    idle_cv_.notify_all();
  }

  // mu_ held. Claims the one notification of the consumer's current
  // sleep when it has something to do (items, or the close); the caller
  // notifies.
  bool ClaimWakeLocked() {
    if (!sleeping_ || (items_.empty() && !closed_)) return false;
    sleeping_ = false;
    ++wakeups_;
    return true;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;       // producer -> consumer: items available
  std::condition_variable idle_cv_;  // consumer -> waiters: backlog drained
  std::vector<T> items_;
  bool draining_ = false;  // consumer is processing a popped batch
  bool sleeping_ = false;  // consumer waits on cv_ and no wake is claimed
  bool closed_ = false;
  uint64_t wakeups_ = 0;
};

}  // namespace eslev

#endif  // ESLEV_CORE_MPSC_QUEUE_H_
