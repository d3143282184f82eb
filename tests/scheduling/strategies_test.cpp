#include "scheduling/scheduler.h"

#include <gtest/gtest.h>

namespace bdps {
namespace {

/// Test rig: subscriptions with distinct deadlines/prices over a common
/// remaining path, and a queue of messages published at different times.
class StrategyRig : public ::testing::Test {
 protected:
  std::vector<std::unique_ptr<Subscription>> subs_;
  std::vector<std::unique_ptr<SubscriptionEntry>> entries_;
  std::vector<QueuedMessage> queue_;
  static constexpr TimeMs kProcessingDelay = 2.0;
  SchedulingContext context_{/*now=*/0.0, /*head_of_line_estimate=*/3750.0};

  const SubscriptionEntry* add_subscription(TimeMs deadline, double price,
                                            PathStats path = {2, 150.0,
                                                              800.0}) {
    auto sub = std::make_unique<Subscription>();
    sub->subscriber = static_cast<SubscriberId>(subs_.size());
    sub->allowed_delay = deadline;
    sub->price = price;
    auto entry = std::make_unique<SubscriptionEntry>();
    entry->subscription = sub.get();
    entry->next_hop = 1;
    entry->path = path;
    subs_.push_back(std::move(sub));
    entries_.push_back(std::move(entry));
    return entries_.back().get();
  }

  /// Queues a message published `age` ms ago targeting `targets`.
  void enqueue(TimeMs age, std::vector<const SubscriptionEntry*> targets,
               double size_kb = 50.0) {
    auto message = std::make_shared<Message>(
        static_cast<MessageId>(queue_.size()), 0, context_.now - age, size_kb,
        std::vector<Attribute>{});
    queue_.push_back(QueuedMessage{std::move(message), context_.now,
                                   std::move(targets)});
    precompute_scores(queue_.back(), kProcessingDelay);
  }
};

TEST_F(StrategyRig, FifoPicksOldestEnqueue) {
  const auto* s = add_subscription(seconds(20.0), 1.0);
  enqueue(0.0, {s});
  enqueue(0.0, {s});
  queue_[0].enqueue_time = 100.0;
  queue_[1].enqueue_time = 50.0;
  const auto fifo = make_strategy(StrategyKind::kFifo);
  EXPECT_EQ(fifo->reference_pick(queue_, context_), 1u);
}

TEST_F(StrategyRig, FifoBreaksTiesByPosition) {
  const auto* s = add_subscription(seconds(20.0), 1.0);
  enqueue(0.0, {s});
  enqueue(0.0, {s});
  const auto fifo = make_strategy(StrategyKind::kFifo);
  EXPECT_EQ(fifo->reference_pick(queue_, context_), 0u);
}

TEST_F(StrategyRig, RlPicksSmallestRemainingLifetime) {
  const auto* tight = add_subscription(seconds(10.0), 1.0);
  const auto* loose = add_subscription(seconds(60.0), 1.0);
  enqueue(0.0, {loose});
  enqueue(0.0, {tight});
  const auto rl = make_strategy(StrategyKind::kRemainingLifetime);
  EXPECT_EQ(rl->reference_pick(queue_, context_), 1u);
}

TEST_F(StrategyRig, RlUsesMeanLifetimeAcrossTargets) {
  const auto* t10 = add_subscription(seconds(10.0), 1.0);
  const auto* t60 = add_subscription(seconds(60.0), 1.0);
  const auto* t30 = add_subscription(seconds(30.0), 1.0);
  enqueue(0.0, {t10, t60});  // Mean lifetime 35 s.
  enqueue(0.0, {t30});       // Mean lifetime 30 s -> more urgent.
  const auto rl = make_strategy(StrategyKind::kRemainingLifetime);
  EXPECT_EQ(rl->reference_pick(queue_, context_), 1u);
  EXPECT_DOUBLE_EQ(mean_remaining_lifetime(queue_[0], context_.now),
                   seconds(35.0));
}

TEST_F(StrategyRig, RlOlderMessageIsMoreUrgent) {
  const auto* s = add_subscription(seconds(30.0), 1.0);
  enqueue(seconds(5.0), {s});
  enqueue(seconds(15.0), {s});  // 15 s already elapsed -> lifetime 15 s.
  const auto rl = make_strategy(StrategyKind::kRemainingLifetime);
  EXPECT_EQ(rl->reference_pick(queue_, context_), 1u);
}

TEST_F(StrategyRig, EbPrefersHigherPrice) {
  const auto* cheap = add_subscription(seconds(30.0), 1.0);
  const auto* pricey = add_subscription(seconds(30.0), 3.0);
  enqueue(0.0, {cheap});
  enqueue(0.0, {pricey});
  const auto eb = make_strategy(StrategyKind::kEb);
  EXPECT_EQ(eb->reference_pick(queue_, context_), 1u);
}

TEST_F(StrategyRig, EbPrefersMoreSubscriptions) {
  const auto* a = add_subscription(seconds(30.0), 1.0);
  const auto* b = add_subscription(seconds(30.0), 1.0);
  const auto* c = add_subscription(seconds(30.0), 1.0);
  enqueue(0.0, {a});
  enqueue(0.0, {b, c});
  const auto eb = make_strategy(StrategyKind::kEb);
  EXPECT_EQ(eb->reference_pick(queue_, context_), 1u);
}

TEST_F(StrategyRig, EbPrefersHigherSuccessProbability) {
  const auto* s = add_subscription(seconds(20.0), 1.0);
  enqueue(seconds(12.0), {s});  // Old message: little budget left.
  enqueue(seconds(1.0), {s});   // Fresh message: likely to make it.
  const auto eb = make_strategy(StrategyKind::kEb);
  EXPECT_EQ(eb->reference_pick(queue_, context_), 1u);
}

TEST_F(StrategyRig, EbIgnoresDoomedMessages) {
  const auto* s = add_subscription(seconds(20.0), 5.0);
  const auto* s2 = add_subscription(seconds(20.0), 1.0);
  enqueue(seconds(19.9), {s});  // Virtually dead despite high price.
  enqueue(seconds(1.0), {s2});
  const auto eb = make_strategy(StrategyKind::kEb);
  EXPECT_EQ(eb->reference_pick(queue_, context_), 1u);
}

TEST_F(StrategyRig, PcPrefersBorderlineOverComfortable) {
  // The comfortable message succeeds with or without postponement (PC ~ 0);
  // the borderline one loses real probability if postponed.
  const auto* comfy = add_subscription(seconds(60.0), 1.0);
  const auto* edge = add_subscription(seconds(12.0), 1.0);
  enqueue(0.0, {comfy});
  enqueue(0.0, {edge});
  const auto pc = make_strategy(StrategyKind::kPc);
  EXPECT_EQ(pc->reference_pick(queue_, context_), 1u);
  EXPECT_GT(postponing_cost(queue_[1], context_),
            postponing_cost(queue_[0], context_));
}

TEST_F(StrategyRig, PcIsEbMinusPostponedEb) {
  const auto* s = add_subscription(seconds(15.0), 2.0);
  enqueue(seconds(2.0), {s});
  const double eb = expected_benefit(queue_[0], context_);
  const double eb_postponed = postponed_benefit(queue_[0], context_);
  EXPECT_DOUBLE_EQ(postponing_cost(queue_[0], context_), eb - eb_postponed);
  EXPECT_GT(eb, eb_postponed);  // FT > 0 can only hurt.
}

TEST_F(StrategyRig, EbpcEndpointsMatchEbAndPc) {
  const auto* a = add_subscription(seconds(12.0), 1.0);
  const auto* b = add_subscription(seconds(60.0), 3.0);
  enqueue(seconds(2.0), {a});
  enqueue(0.0, {b});
  for (const auto& q : queue_) {
    EXPECT_DOUBLE_EQ(ebpc_metric(q, context_, 1.0),
                     expected_benefit(q, context_));
    EXPECT_DOUBLE_EQ(ebpc_metric(q, context_, 0.0),
                     postponing_cost(q, context_));
  }
  const auto ebpc1 = make_strategy(StrategyKind::kEbpc, 1.0);
  const auto eb = make_strategy(StrategyKind::kEb);
  EXPECT_EQ(ebpc1->reference_pick(queue_, context_), eb->reference_pick(queue_, context_));
  const auto ebpc0 = make_strategy(StrategyKind::kEbpc, 0.0);
  const auto pc = make_strategy(StrategyKind::kPc);
  EXPECT_EQ(ebpc0->reference_pick(queue_, context_), pc->reference_pick(queue_, context_));
}

TEST_F(StrategyRig, EbpcWeightOutsideRangeRejected) {
  EXPECT_THROW(make_strategy(StrategyKind::kEbpc, -0.1),
               std::invalid_argument);
  EXPECT_THROW(make_strategy(StrategyKind::kEbpc, 1.5),
               std::invalid_argument);
}

TEST_F(StrategyRig, EmptyTargetsScoreZeroBenefit) {
  enqueue(0.0, {});
  EXPECT_DOUBLE_EQ(expected_benefit(queue_[0], context_), 0.0);
  EXPECT_DOUBLE_EQ(postponing_cost(queue_[0], context_), 0.0);
  EXPECT_EQ(mean_remaining_lifetime(queue_[0], context_.now), kNoDeadline);
}

TEST(StrategyFactory, ParseAndNameRoundTrip) {
  for (const auto kind :
       {StrategyKind::kFifo, StrategyKind::kRemainingLifetime,
        StrategyKind::kEb, StrategyKind::kPc, StrategyKind::kEbpc}) {
    EXPECT_EQ(parse_strategy(strategy_name(kind)), kind);
  }
  EXPECT_EQ(parse_strategy("fifo"), StrategyKind::kFifo);
  EXPECT_THROW(parse_strategy("bogus"), std::invalid_argument);
}

TEST(StrategyFactory, SchedulerNamesAreDistinctive) {
  EXPECT_EQ(make_strategy(StrategyKind::kEb)->name(), "EB");
  EXPECT_EQ(make_strategy(StrategyKind::kFifo)->name(), "FIFO");
  EXPECT_NE(make_strategy(StrategyKind::kEbpc, 0.3)->name().find("0.3"),
            std::string::npos);
}

}  // namespace
}  // namespace bdps
