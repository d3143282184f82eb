// The LB (guaranteed-bandwidth) comparator strategy.
#include <gtest/gtest.h>

#include "experiment/paper.h"
#include "experiment/runner.h"
#include "scheduling/scheduler.h"

namespace bdps {
namespace {

class LowerBoundRig : public ::testing::Test {
 protected:
  std::vector<std::unique_ptr<Subscription>> subs_;
  std::vector<std::unique_ptr<SubscriptionEntry>> entries_;
  SchedulingContext context_{0.0, 3750.0};

  const SubscriptionEntry* add_subscription(TimeMs deadline, double price,
                                            PathStats path) {
    auto sub = std::make_unique<Subscription>();
    sub->allowed_delay = deadline;
    sub->price = price;
    auto entry = std::make_unique<SubscriptionEntry>();
    entry->subscription = sub.get();
    entry->path = path;
    subs_.push_back(std::move(sub));
    entries_.push_back(std::move(entry));
    return entries_.back().get();
  }

  QueuedMessage queued(std::vector<const SubscriptionEntry*> targets) {
    QueuedMessage q{
        std::make_shared<Message>(0, 0, 0.0, 50.0, std::vector<Attribute>{}),
        0.0, std::move(targets)};
    precompute_scores(q, 2.0);
    return q;
  }
};

TEST_F(LowerBoundRig, IndicatorUsesPessimisticRate) {
  // Path: 1 broker, mu = 100 ms/KB, sigma = 20: pessimistic rate 140.
  // 50 KB * 140 = 7000 ms + PD.  Deadline 7001 + PD -> feasible at the
  // lower bound; deadline 6999 -> not, even though the *expected* delay
  // (5000 ms) fits comfortably.
  const auto* tight =
      add_subscription(7000.0, 1.0, PathStats{1, 100.0, 400.0});
  const auto* generous =
      add_subscription(7004.0, 1.0, PathStats{1, 100.0, 400.0});
  const Message m(0, 0, 0.0, 50.0, {});
  EXPECT_DOUBLE_EQ(lower_bound_success(*tight, m, 0.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(lower_bound_success(*generous, m, 0.0, 2.0), 1.0);
  // The distribution-aware probability sees both as near-certain.
  EXPECT_GT(success_probability(*tight, m, 0.0, 2.0), 0.95);
}

TEST_F(LowerBoundRig, BenefitSumsPricesOfGuaranteedTargets) {
  const auto* sure =
      add_subscription(seconds(60.0), 3.0, PathStats{1, 100.0, 400.0});
  const auto* doomed =
      add_subscription(1000.0, 2.0, PathStats{1, 100.0, 400.0});
  const QueuedMessage q = queued({sure, doomed});
  EXPECT_DOUBLE_EQ(lower_bound_benefit(q, context_), 3.0);
}

TEST_F(LowerBoundRig, CannotRankTwoGuaranteedMessages) {
  // Both messages are guaranteed; EB ranks them by probability mass, LB
  // ties and falls back to queue position.
  const auto* near_deadline =
      add_subscription(9000.0, 1.0, PathStats{1, 100.0, 400.0});
  const auto* far_deadline =
      add_subscription(seconds(60.0), 1.0, PathStats{1, 100.0, 400.0});
  std::vector<QueuedMessage> queue;
  queue.push_back(queued({near_deadline}));
  queue.push_back(queued({far_deadline}));
  const auto lb = make_strategy(StrategyKind::kLowerBound);
  EXPECT_EQ(lb->reference_pick(queue, context_), 0u);  // Tie -> first.
  EXPECT_DOUBLE_EQ(lower_bound_benefit(queue[0], context_), 1.0);
  EXPECT_DOUBLE_EQ(lower_bound_benefit(queue[1], context_), 1.0);
}

TEST(LowerBoundStrategy, FactoryAndParsing) {
  EXPECT_EQ(parse_strategy("LB"), StrategyKind::kLowerBound);
  EXPECT_EQ(strategy_name(StrategyKind::kLowerBound), "LB");
  EXPECT_EQ(make_strategy(StrategyKind::kLowerBound)->name(), "LB");
}

TEST(LowerBoundStrategy, EbOutEarnsLbUnderCongestion) {
  // The §2 claim end-to-end: using the full distribution beats planning
  // against the guaranteed rate.
  double eb_total = 0.0;
  double lb_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    SimConfig eb = paper_base_config(ScenarioKind::kSsd, 12.0,
                                     StrategyKind::kEb, seed);
    eb.workload.duration = minutes(15.0);
    SimConfig lb = eb;
    lb.strategy = StrategyKind::kLowerBound;
    eb_total += run_simulation(eb).earning;
    lb_total += run_simulation(lb).earning;
  }
  EXPECT_GT(eb_total, lb_total);
}

TEST(LowerBoundStrategy, LbStillBeatsFifo) {
  // LB is crude but deadline-aware: it should still clearly beat FIFO.
  SimConfig lb = paper_base_config(ScenarioKind::kSsd, 12.0,
                                   StrategyKind::kLowerBound, 4);
  lb.workload.duration = minutes(15.0);
  SimConfig fifo = lb;
  fifo.strategy = StrategyKind::kFifo;
  EXPECT_GT(run_simulation(lb).earning, run_simulation(fifo).earning);
}

}  // namespace
}  // namespace bdps
