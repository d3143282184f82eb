// SpscQueue: the reactor's cross-worker mailbox.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/spsc_queue.h"

namespace bdps {
namespace {

TEST(SpscQueue, FifoSingleThread) {
  SpscQueue<int> queue;
  EXPECT_TRUE(queue.empty());
  for (int i = 0; i < 100; ++i) queue.push(i);
  EXPECT_FALSE(queue.empty());
  int value = -1;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.pop(value));
    EXPECT_EQ(value, i);
  }
  EXPECT_FALSE(queue.pop(value));
  EXPECT_TRUE(queue.empty());
}

TEST(SpscQueue, MoveOnlyPayloadAndDrain) {
  SpscQueue<std::unique_ptr<int>> queue;
  for (int i = 0; i < 10; ++i) queue.push(std::make_unique<int>(i));
  std::vector<std::unique_ptr<int>> out;
  queue.drain(out);
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(*out[i], i);
}

TEST(SpscQueue, ProducerConsumerThreads) {
  SpscQueue<std::uint64_t> queue;
  constexpr std::uint64_t kCount = 200000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) queue.push(i);
  });
  std::uint64_t expected = 0;
  std::uint64_t value = 0;
  while (expected < kCount) {
    if (queue.pop(value)) {
      ASSERT_EQ(value, expected);  // FIFO, nothing lost or reordered.
      ++expected;
    }
  }
  producer.join();
  EXPECT_FALSE(queue.pop(value));
}

}  // namespace
}  // namespace bdps
