#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"

namespace bdps {
namespace {

Event at(TimeMs time, BrokerId broker = 0,
         EventType type = EventType::kPublish) {
  Event e;
  e.time = time;
  e.type = type;
  e.broker = broker;
  return e;
}

/// Pushes, then checks the queue's invariants.
void push(EventQueue& q, Event e) {
  q.push(std::move(e));
  q.check_invariants();
}

/// Pops, then checks the queue's invariants.
Event pop(EventQueue& q) {
  Event e = q.pop();
  q.check_invariants();
  return e;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  push(q, at(30.0));
  push(q, at(10.0));
  push(q, at(20.0));
  EXPECT_DOUBLE_EQ(pop(q).time, 10.0);
  EXPECT_DOUBLE_EQ(pop(q).time, 20.0);
  EXPECT_DOUBLE_EQ(pop(q).time, 30.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SimultaneousEventsPopInInsertionOrder) {
  EventQueue q;
  for (BrokerId b = 0; b < 10; ++b) push(q, at(5.0, b));
  for (BrokerId b = 0; b < 10; ++b) {
    EXPECT_EQ(pop(q).broker, b);
  }
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue q;
  push(q, at(10.0));
  push(q, at(5.0));
  EXPECT_DOUBLE_EQ(pop(q).time, 5.0);
  push(q, at(1.0));
  push(q, at(7.0));
  EXPECT_DOUBLE_EQ(pop(q).time, 1.0);
  EXPECT_DOUBLE_EQ(pop(q).time, 7.0);
  EXPECT_DOUBLE_EQ(pop(q).time, 10.0);
}

TEST(EventQueue, TopPeeksWithoutRemoving) {
  EventQueue q;
  push(q, at(3.0));
  push(q, at(1.0));
  EXPECT_DOUBLE_EQ(q.top().time, 1.0);
  EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, RandomisedAgainstSortReference) {
  Rng rng(42);
  EventQueue q;
  std::vector<double> reference;
  for (int i = 0; i < 5000; ++i) {
    const double t = rng.uniform(0.0, 1000.0);
    reference.push_back(t);
    push(q, at(t));
  }
  std::sort(reference.begin(), reference.end());
  for (const double expected : reference) {
    ASSERT_DOUBLE_EQ(pop(q).time, expected);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameInstantTiesAcrossLanesPopInPushOrder) {
  // One instant, every kind, pushed round-robin: the lanes and the heap
  // each hold a share, and the merge must still pop in push order.
  constexpr EventType kKinds[] = {EventType::kPublish, EventType::kArrival,
                                  EventType::kProcessed,
                                  EventType::kSendComplete, EventType::kFault};
  EventQueue q;
  for (BrokerId b = 0; b < 20; ++b) push(q, at(4.0, b, kKinds[b % 5]));
  for (BrokerId b = 0; b < 20; ++b) {
    const Event e = pop(q);
    EXPECT_EQ(e.broker, b);
    EXPECT_EQ(e.type, kKinds[b % 5]);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, OutOfOrderLanePushFallsBackToTheHeap) {
  // The second arrival is earlier than the arrival lane's tail, so it goes
  // to the heap; it must still pop first.
  EventQueue q;
  push(q, at(10.0, 0, EventType::kArrival));
  push(q, at(5.0, 1, EventType::kArrival));
  push(q, at(10.0, 2, EventType::kArrival));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.top().broker, 1);
  EXPECT_EQ(pop(q).broker, 1);
  EXPECT_EQ(pop(q).broker, 0);
  EXPECT_EQ(pop(q).broker, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CarriesMessagePayload) {
  EventQueue q;
  Event e = at(1.0);
  e.type = EventType::kSendComplete;
  e.neighbor = 7;
  e.message = std::make_shared<Message>(99, 0, 0.0, 50.0,
                                        std::vector<Attribute>{});
  push(q, std::move(e));
  const Event popped = pop(q);
  EXPECT_EQ(popped.type, EventType::kSendComplete);
  EXPECT_EQ(popped.neighbor, 7);
  ASSERT_NE(popped.message, nullptr);
  EXPECT_EQ(popped.message->id(), 99);
}

}  // namespace
}  // namespace bdps
