// MpscQueue: the multi-producer single-consumer mailbox feeding each
// ShardedEngine worker. Producers append under a short critical section;
// the worker drains the whole backlog in one swap, so the per-tuple lock
// cost is O(1) enqueue plus amortized O(1/batch) dequeue, and no lock is
// held while the pipeline runs.

#ifndef ESLEV_CORE_MPSC_QUEUE_H_
#define ESLEV_CORE_MPSC_QUEUE_H_

#include <condition_variable>
#include <mutex>
#include <utility>
#include <vector>

namespace eslev {

template <typename T>
class MpscQueue {
 public:
  /// \brief Enqueue one item. Silently drops after Close() (shutdown is
  /// owner-driven; producers must stop before the owner closes).
  void Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }

  /// \brief Consumer side: block until items exist or the queue is
  /// closed, then take the whole backlog. Returns false when closed and
  /// fully drained (worker should exit).
  bool PopAll(std::vector<T>* out) {
    std::unique_lock<std::mutex> lock(mu_);
    // The previous batch (if any) is now fully processed.
    draining_ = false;
    if (items_.empty()) idle_cv_.notify_all();
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    out->clear();
    out->swap(items_);
    draining_ = true;
    return true;
  }

  /// \brief Block until the queue is empty AND the consumer has finished
  /// processing its current batch (or the queue is closed).
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] { return (items_.empty() && !draining_) || closed_; });
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    idle_cv_.notify_all();
  }

  /// \brief Close AND drop the queued backlog (crash simulation: input
  /// sitting in a dead worker's mailbox is lost, exactly like input in a
  /// crashed process's memory). The consumer exits at its next PopAll.
  void CloseNow() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      items_.clear();
    }
    cv_.notify_all();
    idle_cv_.notify_all();
  }

  /// \brief Reset a closed queue for reuse after its consumer thread has
  /// exited and been joined (standby promotion restarts the worker).
  void Reopen() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = false;
    draining_ = false;
    items_.clear();
  }

  size_t ApproxSize() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;       // producer -> consumer: items available
  std::condition_variable idle_cv_;  // consumer -> waiters: backlog drained
  std::vector<T> items_;
  bool draining_ = false;  // consumer is processing a popped batch
  bool closed_ = false;
};

}  // namespace eslev

#endif  // ESLEV_CORE_MPSC_QUEUE_H_
