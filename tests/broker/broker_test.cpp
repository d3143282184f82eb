#include "broker/broker.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>

namespace bdps {
namespace {

/// Star around broker 0: publisher behind 0, subscribers behind 1, 2 and on
/// 0 itself.
struct StarRig {
  Topology topo;
  std::vector<Subscription> subs;
  std::unique_ptr<RoutingFabric> fabric;
  Strategy strategy{StrategyKind::kFifo};

  StarRig() {
    topo.graph.resize(3);
    topo.graph.add_bidirectional(0, 1, LinkParams{50.0, 10.0});
    topo.graph.add_bidirectional(0, 2, LinkParams{80.0, 10.0});
    topo.publisher_edges = {0};
    topo.subscriber_homes = {1, 2, 0};

    for (int s = 0; s < 3; ++s) {
      Subscription sub;
      sub.subscriber = s;
      sub.home = topo.subscriber_homes[s];
      sub.allowed_delay = seconds(30.0);
      sub.price = 1.0 + s;
      subs.push_back(sub);  // Wildcard filters.
    }
    fabric = std::make_unique<RoutingFabric>(topo, subs);
  }
};

std::shared_ptr<const Message> make_message(double size_kb = 50.0) {
  return std::make_shared<Message>(1, 0, 0.0, size_kb,
                                   std::vector<Attribute>{});
}

TEST(Broker, CreatesOneQueuePerDownstreamNeighbour) {
  const StarRig rig;
  const Broker broker(0, rig.fabric.get(), &rig.topo.graph, &rig.strategy);
  EXPECT_NE(broker.slot_of(1), Broker::kNoSlot);
  EXPECT_NE(broker.slot_of(2), Broker::kNoSlot);
  EXPECT_EQ(broker.slot_of(0), Broker::kNoSlot);
  EXPECT_EQ(broker.queues().size(), 2u);
}

TEST(Broker, LeafBrokerHasNoQueues) {
  const StarRig rig;
  const Broker broker(1, rig.fabric.get(), &rig.topo.graph, &rig.strategy);
  EXPECT_TRUE(broker.queues().empty());
}

TEST(Broker, ProcessFansOutPerNeighbourAndDeliversLocally) {
  const StarRig rig;
  Broker broker(0, rig.fabric.get(), &rig.topo.graph, &rig.strategy);
  const Broker::FanOut fanout = broker.process(make_message(), 10.0);

  ASSERT_EQ(fanout.local.size(), 1u);
  EXPECT_EQ(fanout.local[0]->subscription->subscriber, 2);

  ASSERT_EQ(fanout.sendable.size(), 2u);  // Both links were idle.
  // Fan-out names queue slots; slots are ascending-neighbour ranks.
  EXPECT_EQ(broker.queue_at(fanout.sendable[0]).neighbor(), 1);
  EXPECT_EQ(broker.queue_at(fanout.sendable[1]).neighbor(), 2);
  EXPECT_EQ(broker.queue_at(broker.slot_of(1)).size(), 1u);
  EXPECT_EQ(broker.queue_at(broker.slot_of(2)).size(), 1u);
  // Each copy carries exactly the subscriptions behind that neighbour.
  EXPECT_EQ(broker.queue_at(broker.slot_of(1))
                .messages()[0]
                .targets[0]
                ->subscription->subscriber,
            0);
  EXPECT_EQ(broker.queue_at(broker.slot_of(2))
                .messages()[0]
                .targets[0]
                ->subscription->subscriber,
            1);
}

TEST(Broker, BusyLinkIsNotReportedSendable) {
  const StarRig rig;
  Broker broker(0, rig.fabric.get(), &rig.topo.graph, &rig.strategy);
  broker.queue_at(broker.slot_of(1)).set_link_busy(true);
  const Broker::FanOut fanout = broker.process(make_message(), 0.0);
  ASSERT_EQ(fanout.sendable.size(), 1u);
  EXPECT_EQ(broker.queue_at(fanout.sendable[0]).neighbor(), 2);
  // Still enqueued, just not started.
  EXPECT_EQ(broker.queue_at(broker.slot_of(1)).size(), 1u);
}

TEST(Broker, RunningAverageMessageSize) {
  const StarRig rig;
  Broker broker(0, rig.fabric.get(), &rig.topo.graph, &rig.strategy);
  EXPECT_DOUBLE_EQ(broker.average_message_size_kb(), 0.0);
  broker.process(make_message(40.0), 0.0);
  broker.process(make_message(60.0), 0.0);
  EXPECT_DOUBLE_EQ(broker.average_message_size_kb(), 50.0);
}

TEST(Broker, ContextUsesBelievedLinkForFt) {
  const StarRig rig;
  Broker broker(0, rig.fabric.get(), &rig.topo.graph, &rig.strategy);
  broker.process(make_message(50.0), 0.0);
  const SchedulingContext context =
      broker.context_at(broker.slot_of(1), 123.0);
  EXPECT_DOUBLE_EQ(context.now, 123.0);
  // FT = avg size (50 KB) * believed mean (50 ms/KB) = 2500 ms.
  EXPECT_DOUBLE_EQ(context.head_of_line_estimate, 2500.0);
}

TEST(Broker, PublisherMaskFiltersForeignPublishers) {
  // Two publishers, one subscriber; the topology forces distinct paths, so
  // each intermediate broker must only forward its own publisher's traffic.
  Topology topo;
  topo.graph.resize(4);
  topo.graph.add_bidirectional(0, 1, LinkParams{50.0, 10.0});
  topo.graph.add_bidirectional(1, 2, LinkParams{50.0, 10.0});
  topo.graph.add_bidirectional(3, 2, LinkParams{50.0, 10.0});
  topo.publisher_edges = {0, 3};
  topo.subscriber_homes = {2};
  Subscription sub;
  sub.subscriber = 0;
  sub.home = 2;
  sub.allowed_delay = seconds(30.0);
  const RoutingFabric fabric(topo, {sub});

  const Strategy strategy{StrategyKind::kFifo};
  Broker broker1(1, &fabric, &topo.graph, &strategy);
  // Publisher 0's message flows through broker 1 ...
  const auto from_p0 = broker1.process(
      std::make_shared<Message>(1, 0, 0.0, 50.0, std::vector<Attribute>{}),
      0.0);
  EXPECT_EQ(broker1.queue_at(broker1.slot_of(2)).size(), 1u);
  EXPECT_EQ(from_p0.sendable.size(), 1u);
  // ... but publisher 1's must not be forwarded by broker 1 even though the
  // subscription is in its table.
  const auto from_p1 = broker1.process(
      std::make_shared<Message>(2, 1, 0.0, 50.0, std::vector<Attribute>{}),
      0.0);
  EXPECT_TRUE(from_p1.sendable.empty());
  EXPECT_EQ(broker1.queue_at(broker1.slot_of(2)).size(), 1u);  // Unchanged.
}

TEST(OutputQueue, TakeNextRemovesChosenMessage) {
  const StarRig rig;
  Broker broker(0, rig.fabric.get(), &rig.topo.graph, &rig.strategy);
  broker.process(make_message(), 0.0);
  broker.process(make_message(), 0.0);
  OutputQueue& queue = broker.queue_at(broker.slot_of(1));
  ASSERT_EQ(queue.size(), 2u);

  PurgeStats stats;
  const auto taken = queue.take_next(
      broker.context_at(broker.slot_of(1), 0.0), PurgePolicy{}, &stats);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(queue.size(), 1u);
}

TEST(OutputQueue, TakeNextPurgesFirst) {
  const StarRig rig;
  Broker broker(0, rig.fabric.get(), &rig.topo.graph, &rig.strategy);
  // A message published 31 s ago is already past the 30 s bound.
  auto stale = std::make_shared<Message>(9, 0, -seconds(31.0), 50.0,
                                         std::vector<Attribute>{});
  broker.process(stale, 0.0);
  OutputQueue& queue = broker.queue_at(broker.slot_of(1));
  ASSERT_EQ(queue.size(), 1u);

  PurgeStats stats;
  const auto taken = queue.take_next(
      broker.context_at(broker.slot_of(1), 0.0), PurgePolicy{}, &stats);
  EXPECT_FALSE(taken.has_value());
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_TRUE(queue.empty());
}

TEST(OutputQueue, BelievedLinkIsAdjustable) {
  const Strategy strategy{StrategyKind::kFifo};
  OutputQueue queue(1, 0, LinkParams{50.0, 20.0}, &strategy, 2.0);
  EXPECT_DOUBLE_EQ(queue.head_of_line_estimate(50.0), 2500.0);
  queue.set_believed_link(LinkParams{80.0, 20.0});
  EXPECT_DOUBLE_EQ(queue.head_of_line_estimate(50.0), 4000.0);
}

/// Two multi-hop targets with distinct deadlines, so PD moves every row.
struct TwoTargets {
  Subscription near;
  Subscription far;
  SubscriptionEntry near_entry;
  SubscriptionEntry far_entry;

  TwoTargets() {
    near.allowed_delay = seconds(12.0);
    far.allowed_delay = seconds(40.0);
    far.price = 3.0;
    near_entry.subscription = &near;
    near_entry.path = PathStats{3, 150.0, 800.0};
    far_entry.subscription = &far;
    far_entry.path = PathStats{1, 90.0, 0.0};
  }

  QueuedMessage copy(MessageId id) const {
    return QueuedMessage{std::make_shared<Message>(id, 0, -500.0, 40.0,
                                                   std::vector<Attribute>{}),
                         0.0,
                         {&near_entry, &far_entry}};
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(OutputQueue, EnqueueScoresEveryCopyWithTheQueuesProcessingDelay) {
  constexpr TimeMs kPd = 7.5;
  const TwoTargets rig;
  const Strategy strategy{StrategyKind::kEb};
  OutputQueue queue(1, 0, LinkParams{50.0, 20.0}, &strategy, kPd);
  QueuedMessage other_pd = rig.copy(1);
  precompute_scores(other_pd, 0.5);
  QueuedMessage same_pd = rig.copy(2);
  precompute_scores(same_pd, kPd);
  queue.enqueue(rig.copy(0));  // Unscored.
  queue.enqueue(std::move(other_pd));
  queue.enqueue(std::move(same_pd));

  ASSERT_EQ(queue.size(), 3u);
  for (const QueuedMessage& got : queue.messages()) {
    QueuedMessage want = rig.copy(got.message->id());
    precompute_scores(want, kPd);
    ASSERT_EQ(got.scored.size(), want.scored.size());
    for (std::size_t t = 0; t < want.scored.size(); ++t) {
      const ScoredTarget& g = got.scored[t];
      const ScoredTarget& w = want.scored[t];
      EXPECT_TRUE(same_bits(g.slack_const, w.slack_const));
      EXPECT_TRUE(same_bits(g.inv_size_sigma, w.inv_size_sigma));
      EXPECT_TRUE(same_bits(g.price, w.price));
      EXPECT_TRUE(same_bits(g.lb_indicator_const, w.lb_indicator_const));
      EXPECT_TRUE(same_bits(g.expiry, w.expiry));
    }
    EXPECT_TRUE(same_bits(got.expiry_sum, want.expiry_sum));
    EXPECT_EQ(got.bounded_targets, want.bounded_targets);
  }
  EXPECT_NO_THROW(queue.check_invariants(SchedulingContext{1000.0, 0.0}));
}

TEST(OutputQueue, InvariantsRejectARowWithoutOneKernelRowPerTarget) {
  const TwoTargets rig;
  const Strategy strategy{StrategyKind::kEbpc};
  OutputQueue queue(1, 0, LinkParams{50.0, 20.0}, &strategy, 2.0);
  queue.enqueue(rig.copy(0));
  queue.enqueue(rig.copy(1));
  const SchedulingContext context{1000.0, 2000.0};
  ASSERT_NO_THROW(queue.check_invariants(context));
  // Nothing the queue offers can unscore a row; reach past its const view.
  const_cast<QueuedMessage&>(queue.messages()[1]).scored.clear();
  EXPECT_THROW(queue.check_invariants(context), std::logic_error);
}

}  // namespace
}  // namespace bdps
