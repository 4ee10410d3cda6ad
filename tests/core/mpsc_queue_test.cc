// The shard mailbox's wake rule (DESIGN.md §8, core/mpsc_queue.h): a
// data item does not wake a sleeping consumer; a control item, the
// 64th waiting item, Publish(), WaitIdle() and Close() do, with at most
// one notification per sleep. Every assertion reads the notification
// counter, never a clock. A consumer is known to sleep on an empty
// queue once WaitIdle() returns after it has popped: it marks its batch
// done and goes to sleep in one critical section.

#include "core/mpsc_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace eslev {
namespace {

struct Msg {
  bool control = false;
};

using Queue = MpscQueue<Msg>;
constexpr size_t kThreshold = Queue::kWakeThreshold;

/// A consumer thread that counts what it pops.
class Consumer {
 public:
  explicit Consumer(Queue* queue) : queue_(queue) {
    thread_ = std::thread([this] {
      std::vector<Msg> batch;
      while (queue_->PopAll(&batch)) {
        batches_.fetch_add(1);
        items_.fetch_add(batch.size());
      }
    });
  }
  ~Consumer() { Join(); }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }
  uint64_t items() const { return items_.load(); }
  uint64_t batches() const { return batches_.load(); }

 private:
  Queue* queue_;
  std::thread thread_;
  std::atomic<uint64_t> items_{0};
  std::atomic<uint64_t> batches_{0};
};

void PushData(Queue& queue, size_t n) {
  for (size_t i = 0; i < n; ++i) queue.Push(Msg{});
}

/// Put the consumer to sleep on an empty queue: it pops a control item
/// and WaitIdle returns once it is back asleep.
void Sleep(Queue& queue) {
  queue.PushControl(Msg{true});
  queue.WaitIdle();
}

TEST(MpscQueueTest, DataBelowTheThresholdDoesNotWake) {
  Queue queue;
  Consumer consumer(&queue);
  Sleep(queue);
  const uint64_t woken = queue.wakeups();
  const uint64_t popped = consumer.items();
  PushData(queue, kThreshold - 1);
  EXPECT_EQ(queue.wakeups(), woken);
  EXPECT_EQ(queue.ApproxSize(), kThreshold - 1);
  EXPECT_EQ(consumer.items(), popped);
  queue.Publish();
  EXPECT_EQ(queue.wakeups(), woken + 1);
  queue.WaitIdle();
  EXPECT_EQ(consumer.items(), popped + kThreshold - 1);
  queue.Close();
}

TEST(MpscQueueTest, TheThresholdItemWakes) {
  Queue queue;
  Consumer consumer(&queue);
  Sleep(queue);
  const uint64_t woken = queue.wakeups();
  PushData(queue, kThreshold - 1);
  EXPECT_EQ(queue.wakeups(), woken);
  queue.Push(Msg{});
  EXPECT_EQ(queue.wakeups(), woken + 1);
  queue.WaitIdle();
  EXPECT_EQ(queue.wakeups(), woken + 1);
  queue.Close();
}

TEST(MpscQueueTest, AControlItemWakes) {
  Queue queue;
  Consumer consumer(&queue);
  Sleep(queue);
  const uint64_t woken = queue.wakeups();
  const uint64_t popped = consumer.items();
  PushData(queue, 5);
  queue.PushControl(Msg{true});
  EXPECT_EQ(queue.wakeups(), woken + 1);
  queue.WaitIdle();
  EXPECT_EQ(consumer.items(), popped + 6);
  queue.Close();
}

TEST(MpscQueueTest, PublishWakesOnlyForWaitingItems) {
  Queue queue;
  Consumer consumer(&queue);
  Sleep(queue);
  const uint64_t woken = queue.wakeups();
  queue.Publish();  // nothing waits: no notification
  EXPECT_EQ(queue.wakeups(), woken);
  PushData(queue, 3);
  queue.Publish();
  EXPECT_EQ(queue.wakeups(), woken + 1);
  queue.WaitIdle();
  queue.Close();
}

TEST(MpscQueueTest, WaitIdleWakesThenWaits) {
  Queue queue;
  Consumer consumer(&queue);
  Sleep(queue);
  const uint64_t woken = queue.wakeups();
  const uint64_t popped = consumer.items();
  PushData(queue, 5);
  queue.WaitIdle();
  EXPECT_EQ(queue.wakeups(), woken + 1);
  EXPECT_EQ(consumer.items(), popped + 5);
  EXPECT_EQ(queue.ApproxSize(), 0u);
  queue.Close();
}

TEST(MpscQueueTest, CloseWakesAndTheBacklogIsDrained) {
  Queue queue;
  Consumer consumer(&queue);
  Sleep(queue);
  const uint64_t woken = queue.wakeups();
  const uint64_t popped = consumer.items();
  PushData(queue, 5);
  queue.Close();
  EXPECT_EQ(queue.wakeups(), woken + 1);
  consumer.Join();
  EXPECT_EQ(consumer.items(), popped + 5);
}

TEST(MpscQueueTest, CloseNowWakesAndDropsTheBacklog) {
  Queue queue;
  Consumer consumer(&queue);
  Sleep(queue);
  const uint64_t woken = queue.wakeups();
  const uint64_t popped = consumer.items();
  PushData(queue, 5);
  queue.CloseNow();
  EXPECT_EQ(queue.wakeups(), woken + 1);
  consumer.Join();
  EXPECT_EQ(consumer.items(), popped);
  EXPECT_EQ(queue.ApproxSize(), 0u);
}

// The first notifier claims the sleep; later ones until the consumer
// sleeps again send nothing. Each claimed sleep ends in a pop, so the
// counter never exceeds the batches popped, whatever the schedule.
TEST(MpscQueueTest, OneNotificationPerSleep) {
  Queue queue;
  Consumer consumer(&queue);
  Sleep(queue);
  const uint64_t woken = queue.wakeups();
  const uint64_t batches = consumer.batches();
  PushData(queue, 1);
  for (int i = 0; i < 10; ++i) {
    queue.PushControl(Msg{true});
    queue.Publish();
  }
  PushData(queue, 3 * kThreshold);
  queue.WaitIdle();
  const uint64_t sent = queue.wakeups() - woken;
  EXPECT_GE(sent, 1u);
  EXPECT_LE(sent, consumer.batches() - batches);
  queue.Close();
}

TEST(MpscQueueTest, ReopenStartsWithoutASleepingConsumer) {
  Queue queue;
  {
    Consumer consumer(&queue);
    Sleep(queue);
    queue.Close();
  }
  queue.Reopen();
  const uint64_t woken = queue.wakeups();
  // No consumer runs: nothing sleeps, so a control item notifies no one.
  queue.PushControl(Msg{true});
  EXPECT_EQ(queue.wakeups(), woken);
  Consumer consumer(&queue);
  queue.WaitIdle();
  EXPECT_EQ(consumer.items(), 1u);
  queue.Close();
}

// Several producers mix data, control items and publishes. Every item is
// consumed, and the notifications stay within the rule's bound: one per
// control item or publish, plus one per kThreshold data items.
TEST(MpscQueueTest, MultiProducerStress) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  Queue queue;
  Consumer consumer(&queue);
  Sleep(queue);
  const uint64_t woken = queue.wakeups();
  const uint64_t popped = consumer.items();
  const uint64_t batches = consumer.batches();
  std::atomic<uint64_t> data{0};
  std::atomic<uint64_t> controls{0};
  std::atomic<uint64_t> publishes{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        if ((i + p) % 97 == 0) {
          queue.PushControl(Msg{true});
          controls.fetch_add(1);
        } else {
          queue.Push(Msg{});
          data.fetch_add(1);
        }
        if ((i + 3 * p) % 251 == 0) {
          queue.Publish();
          publishes.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.WaitIdle();  // publishes once more
  EXPECT_EQ(consumer.items() - popped, data.load() + controls.load());
  const uint64_t sent = queue.wakeups() - woken;
  EXPECT_LE(sent, consumer.batches() - batches);
  EXPECT_LE(sent, controls.load() + publishes.load() + 1 +
                      data.load() / kThreshold);
  queue.Close();
}

}  // namespace
}  // namespace eslev
