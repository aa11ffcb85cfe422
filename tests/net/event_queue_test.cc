#include "net/event_queue.h"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(TimedEventHeapTest, PopsInTimeOrder) {
  TimedEventHeap<int> h;
  h.Push(3.0, 30);
  h.Push(1.0, 10);
  h.Push(2.0, 20);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_DOUBLE_EQ(h.NextTime(), 1.0);
  EXPECT_EQ(h.Pop().payload, 10);
  EXPECT_EQ(h.Pop().payload, 20);
  EXPECT_EQ(h.Pop().payload, 30);
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(std::isinf(h.NextTime()));
}

TEST(TimedEventHeapTest, EqualTimesPopInPushOrder) {
  TimedEventHeap<int> h;
  for (int i = 0; i < 64; ++i) h.Push(1.0, i);
  for (int i = 0; i < 64; ++i) {
    auto item = h.Pop();
    EXPECT_EQ(item.payload, i);
    EXPECT_EQ(item.seq, static_cast<uint64_t>(i));
  }
}

TEST(TimedEventHeapTest, FifoStressUnderInterleavedTimestamps) {
  // Many duplicate timestamps pushed in shuffled bursts: the full pop
  // sequence must be sorted by time and, within a timestamp, by push
  // order — a plain binary heap without the seq tie-break fails this.
  TimedEventHeap<std::pair<int, int>> h;  // (time bucket, push index)
  Rng rng(99);
  std::vector<int> push_index(5, 0);
  for (int burst = 0; burst < 200; ++burst) {
    int bucket = static_cast<int>(rng.NextBelow(5));
    h.Push(static_cast<double>(bucket), {bucket, push_index[bucket]++});
    // Occasionally drain a few to churn the heap's internal layout.
    if (burst % 7 == 6) h.Pop();
  }
  std::pair<int, int> last{-1, -1};
  std::vector<int> next_expected(5, 0);
  while (!h.empty()) {
    auto item = h.Pop();
    EXPECT_GE(item.payload.first, last.first);
    EXPECT_GE(item.payload.second, next_expected[item.payload.first]);
    next_expected[item.payload.first] = item.payload.second + 1;
    last = item.payload;
  }
}

TEST(TimedEventHeapTest, PopWindowIsExclusiveAndOrdered) {
  TimedEventHeap<int> h;
  h.Push(0.5, 1);
  h.Push(1.0, 2);
  h.Push(1.0, 3);
  h.Push(1.5, 4);
  std::vector<TimedEventHeap<int>::Item> window{{9.0, 9, 9}};
  h.PopWindow(1.5, &window);  // horizon itself excluded, old items dropped
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window[0].payload, 1);
  EXPECT_EQ(window[1].payload, 2);
  EXPECT_EQ(window[2].payload, 3);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_DOUBLE_EQ(h.NextTime(), 1.5);
}

TEST(TimedEventHeapTest, PopWindowOnEmptyHeapReturnsNothing) {
  TimedEventHeap<int> h;
  std::vector<TimedEventHeap<int>::Item> window;
  h.PopWindow(100.0, &window);
  EXPECT_TRUE(window.empty());
}

// Regression: at 2^48 the spacing of doubles is 1/16, so a 0.03 lookahead
// rounds away and the horizon equals the earliest time. The window came
// back empty, and the event-driven engine read past it.
TEST(TimedEventHeapTest, PopWindowTakesTheEarliestItemPastRounding) {
  const double t = std::ldexp(1.0, 48);
  TimedEventHeap<int> h;
  h.Push(t, 1);
  h.Push(t, 2);
  std::vector<TimedEventHeap<int>::Item> window;
  h.PopWindow(t + 0.03, &window);
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window[0].payload, 1);
  EXPECT_EQ(h.size(), 1u);
}

TEST(TimedEventHeapTest, SupportsMoveOnlyPayloads) {
  TimedEventHeap<std::unique_ptr<int>> h;
  h.Push(2.0, std::make_unique<int>(2));
  h.Push(1.0, std::make_unique<int>(1));
  EXPECT_EQ(*h.Pop().payload, 1);
  EXPECT_EQ(*h.Pop().payload, 2);
}

}  // namespace
}  // namespace dgt
