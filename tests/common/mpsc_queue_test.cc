#include "common/mpsc_queue.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace dgt {
namespace {

constexpr size_t kAll = std::numeric_limits<size_t>::max();

TEST(BoundedWorkQueueTest, ZeroCapacityIsBumpedToOne) {
  BoundedWorkQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.TryPush(7));
  EXPECT_FALSE(q.TryPush(8));
}

// The drain-all consumer (the serving layer's trust-update ingest).

TEST(BoundedWorkQueueTest, DrainAllFifoOrderSingleProducer) {
  BoundedWorkQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_EQ(q.size(), 5u);

  std::vector<int> out{-1};  // a drain must append, not overwrite
  EXPECT_EQ(q.TryPopUpTo(kAll, &out), 5u);
  EXPECT_EQ(out, (std::vector<int>{-1, 0, 1, 2, 3, 4}));
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.TryPopUpTo(kAll, &out), 0u);
}

TEST(BoundedWorkQueueTest, FullQueueRejectsWithBackpressureCount) {
  BoundedWorkQueue<int> q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_FALSE(q.TryPush(4));
  EXPECT_EQ(q.rejected(), 2u);

  std::vector<int> out;
  EXPECT_EQ(q.TryPopUpTo(kAll, &out), 2u);
  EXPECT_TRUE(q.TryPush(5));  // drained -> accepting again
  EXPECT_EQ(q.rejected(), 2u);
}

TEST(BoundedWorkQueueTest, ConcurrentProducersLoseNothingDrainAll) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 10000;
  BoundedWorkQueue<uint64_t> q(512);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const uint64_t value =
            static_cast<uint64_t>(p) * kPerProducer + static_cast<uint64_t>(i);
        while (!q.TryPush(value)) std::this_thread::yield();
      }
    });
  }

  std::vector<uint64_t> received;
  while (received.size() <
         static_cast<size_t>(kProducers) * kPerProducer) {
    if (q.TryPopUpTo(kAll, &received) == 0) std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(q.size(), 0u);

  // Every value arrives exactly once, and each producer's values arrive
  // in its own push order.
  std::vector<uint64_t> last_seen(kProducers, 0);
  std::vector<uint32_t> counts(kProducers, 0);
  for (uint64_t value : received) {
    const int p = static_cast<int>(value / kPerProducer);
    ASSERT_LT(p, kProducers);
    if (counts[p] > 0) {
      EXPECT_LT(last_seen[p], value);
    }
    last_seen[p] = value;
    ++counts[p];
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(counts[p], static_cast<uint32_t>(kPerProducer)) << "p=" << p;
  }
}

// The blocking consumers (the RPC front-end's worker pool).

TEST(BoundedWorkQueueTest, FifoAndBatchDrain) {
  BoundedWorkQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_EQ(q.size(), 5u);

  int first = -1;
  EXPECT_TRUE(q.PopBlocking(&first));
  EXPECT_EQ(first, 0);

  std::vector<int> batch{-1};  // TryPopUpTo must append, not overwrite
  EXPECT_EQ(q.TryPopUpTo(3, &batch), 3u);
  EXPECT_EQ(batch, (std::vector<int>{-1, 1, 2, 3}));
  EXPECT_EQ(q.TryPopUpTo(10, &batch), 1u);  // only one item left
  EXPECT_EQ(batch.back(), 4);
  EXPECT_EQ(q.TryPopUpTo(10, &batch), 0u);
}

TEST(BoundedWorkQueueTest, FullAndClosedPushesRejectWithCount) {
  BoundedWorkQueue<int> q(2);
  EXPECT_EQ(q.capacity(), 2u);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full
  EXPECT_EQ(q.rejected(), 1u);

  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.TryPush(4));  // closed
  EXPECT_EQ(q.rejected(), 2u);

  // Items queued before Close stay poppable (the server drains accepted
  // work on Stop); only then does PopBlocking report exhaustion.
  int out = -1;
  EXPECT_TRUE(q.PopBlocking(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.PopBlocking(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.PopBlocking(&out));
}

TEST(BoundedWorkQueueTest, CloseWakesBlockedConsumers) {
  BoundedWorkQueue<int> q(4);
  std::vector<std::thread> consumers;
  std::atomic<int> woke{0};
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      int out;
      while (q.PopBlocking(&out)) {
      }
      ++woke;  // returns false only once closed and drained
    });
  }
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(woke.load(), 3);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedWorkQueueTest, ConcurrentProducersAndConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 5000;
  BoundedWorkQueue<uint64_t> q(64);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const uint64_t value =
            static_cast<uint64_t>(p) * kPerProducer + static_cast<uint64_t>(i);
        while (!q.TryPush(value)) std::this_thread::yield();
      }
    });
  }

  std::mutex received_mu;
  std::vector<uint64_t> received;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      uint64_t head;
      std::vector<uint64_t> batch;
      while (q.PopBlocking(&head)) {
        batch.clear();
        batch.push_back(head);
        q.TryPopUpTo(7, &batch);  // the worker-pool drain pattern
        std::lock_guard<std::mutex> lock(received_mu);
        received.insert(received.end(), batch.begin(), batch.end());
      }
    });
  }

  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  ASSERT_EQ(received.size(),
            static_cast<size_t>(kProducers) * kPerProducer);
  std::vector<uint32_t> counts(kProducers, 0);
  for (uint64_t value : received) {
    const int p = static_cast<int>(value / kPerProducer);
    ASSERT_LT(p, kProducers);
    ++counts[p];
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(counts[p], static_cast<uint32_t>(kPerProducer)) << "p=" << p;
  }
}

}  // namespace
}  // namespace dgt
