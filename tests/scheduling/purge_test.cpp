#include "scheduling/purge.h"

#include <gtest/gtest.h>

namespace bdps {
namespace {

class PurgeRig : public ::testing::Test {
 protected:
  std::vector<std::unique_ptr<Subscription>> subs_;
  std::vector<std::unique_ptr<SubscriptionEntry>> entries_;
  std::vector<QueuedMessage> queue_;
  static constexpr TimeMs kProcessingDelay = 2.0;
  SchedulingContext context_{/*now=*/0.0, /*head_of_line_estimate=*/3750.0};
  PurgePolicy policy_;  // Paper defaults: eps = 0.05%, drop expired.

  const SubscriptionEntry* add_subscription(TimeMs deadline,
                                            PathStats path = {2, 150.0,
                                                              800.0}) {
    auto sub = std::make_unique<Subscription>();
    sub->allowed_delay = deadline;
    sub->price = 1.0;
    auto entry = std::make_unique<SubscriptionEntry>();
    entry->subscription = sub.get();
    entry->path = path;
    subs_.push_back(std::move(sub));
    entries_.push_back(std::move(entry));
    return entries_.back().get();
  }

  void enqueue(TimeMs age, std::vector<const SubscriptionEntry*> targets) {
    auto message = std::make_shared<Message>(
        static_cast<MessageId>(queue_.size()), 0, context_.now - age, 50.0,
        std::vector<Attribute>{});
    queue_.push_back(
        QueuedMessage{std::move(message), context_.now, std::move(targets)});
    precompute_scores(queue_.back(), kProcessingDelay);
  }
};

TEST_F(PurgeRig, ExpiredMessageIsDropped) {
  const auto* s = add_subscription(seconds(10.0));
  enqueue(seconds(11.0), {s});
  const PurgeStats stats = purge_queue(queue_, context_, policy_);
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.hopeless, 0u);
  EXPECT_TRUE(queue_.empty());
}

TEST_F(PurgeRig, FreshMessageSurvives) {
  const auto* s = add_subscription(seconds(30.0));
  enqueue(seconds(1.0), {s});
  const PurgeStats stats = purge_queue(queue_, context_, policy_);
  EXPECT_EQ(stats.expired + stats.hopeless, 0u);
  EXPECT_EQ(queue_.size(), 1u);
}

TEST_F(PurgeRig, HopelessButNotExpiredIsDroppedByEq11) {
  // Deadline 10 s, but the remaining path needs ~7.5 s +/- 1.4 s and 9.5 s
  // have already elapsed: not expired, yet success is ~Phi(-5) << 0.05%.
  const auto* s = add_subscription(seconds(10.0));
  enqueue(seconds(9.5), {s});
  const PurgeStats stats = purge_queue(queue_, context_, policy_);
  EXPECT_EQ(stats.expired, 0u);
  EXPECT_EQ(stats.hopeless, 1u);
  EXPECT_TRUE(queue_.empty());
}

TEST_F(PurgeRig, EpsilonZeroDisablesProbabilisticPurge) {
  const auto* s = add_subscription(seconds(10.0));
  enqueue(seconds(9.5), {s});
  policy_.epsilon = 0.0;
  const PurgeStats stats = purge_queue(queue_, context_, policy_);
  EXPECT_EQ(stats.hopeless, 0u);
  EXPECT_EQ(queue_.size(), 1u);  // Still not expired, so it stays.
}

TEST_F(PurgeRig, DropExpiredFlagControlsExpiredRule) {
  const auto* s = add_subscription(seconds(10.0));
  enqueue(seconds(11.0), {s});
  policy_.drop_expired = false;
  policy_.epsilon = 0.0;
  EXPECT_EQ(purge_queue(queue_, context_, policy_).expired, 0u);
  EXPECT_EQ(queue_.size(), 1u);
}

TEST_F(PurgeRig, OneLiveTargetKeepsTheMessage) {
  // Eq. 11 requires *all* subscriptions hopeless before deletion.
  const auto* dead = add_subscription(seconds(10.0));
  const auto* alive = add_subscription(seconds(60.0));
  enqueue(seconds(11.0), {dead, alive});
  const PurgeStats stats = purge_queue(queue_, context_, policy_);
  EXPECT_EQ(stats.expired + stats.hopeless, 0u);
  EXPECT_EQ(queue_.size(), 1u);
}

TEST_F(PurgeRig, StableOrderOfSurvivors) {
  const auto* s = add_subscription(seconds(60.0));
  const auto* dead = add_subscription(seconds(5.0));
  enqueue(seconds(1.0), {s});
  enqueue(seconds(6.0), {dead});
  enqueue(seconds(2.0), {s});
  purge_queue(queue_, context_, policy_);
  ASSERT_EQ(queue_.size(), 2u);
  EXPECT_EQ(queue_[0].message->id(), 0);
  EXPECT_EQ(queue_[1].message->id(), 2);
}

TEST_F(PurgeRig, ShouldPurgeAgreesWithPurgeQueue) {
  const auto* s = add_subscription(seconds(10.0));
  enqueue(seconds(11.0), {s});
  enqueue(seconds(1.0), {s});
  EXPECT_TRUE(should_purge(queue_[0], context_, policy_));
  EXPECT_FALSE(should_purge(queue_[1], context_, policy_));
}

TEST_F(PurgeRig, UnboundedTargetIsNeverPurged) {
  const auto* s = add_subscription(kNoDeadline);
  enqueue(seconds(3600.0), {s});
  const PurgeStats stats = purge_queue(queue_, context_, policy_);
  EXPECT_EQ(stats.expired + stats.hopeless, 0u);
  EXPECT_EQ(queue_.size(), 1u);
}

TEST_F(PurgeRig, EmptyTargetListIsNotPurged) {
  // A copy with no targets should not arise, but the purge must not crash
  // or treat vacuous quantification as "all hopeless".
  enqueue(seconds(1.0), {});
  const PurgeStats stats = purge_queue(queue_, context_, policy_);
  EXPECT_EQ(stats.expired + stats.hopeless, 0u);
  EXPECT_EQ(queue_.size(), 1u);
}

TEST_F(PurgeRig, StatsAccumulateAcrossCalls) {
  const auto* s = add_subscription(seconds(10.0));
  enqueue(seconds(11.0), {s});
  PurgeStats total;
  total += purge_queue(queue_, context_, policy_);
  enqueue(seconds(12.0), {s});
  total += purge_queue(queue_, context_, policy_);
  EXPECT_EQ(total.expired, 2u);
}

/// Epsilon sweep: larger thresholds purge strictly more aggressively.
class EpsilonMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonMonotonicity, SurvivorCountDecreasesWithEpsilon) {
  Subscription sub;
  sub.allowed_delay = seconds(10.0);
  sub.price = 1.0;
  SubscriptionEntry entry;
  entry.subscription = &sub;
  entry.path = PathStats{2, 150.0, 800.0};

  auto survivors_at = [&](double epsilon) {
    std::vector<QueuedMessage> queue;
    for (int age_s = 0; age_s <= 10; ++age_s) {
      auto message = std::make_shared<Message>(
          age_s, 0, -seconds(age_s), 50.0, std::vector<Attribute>{});
      queue.push_back(QueuedMessage{std::move(message), 0.0, {&entry}});
      precompute_scores(queue.back(), 2.0);
    }
    PurgePolicy policy;
    policy.epsilon = epsilon;
    const SchedulingContext context{0.0, 3750.0};
    purge_queue(queue, context, policy);
    return queue.size();
  };

  const double epsilon = GetParam();
  EXPECT_LE(survivors_at(epsilon * 10.0), survivors_at(epsilon));
}

INSTANTIATE_TEST_SUITE_P(Sweep, EpsilonMonotonicity,
                         ::testing::Values(1e-5, 5e-4, 1e-2, 5e-2));

}  // namespace
}  // namespace bdps
