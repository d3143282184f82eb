// Property tests on the scheduling metrics: invariances and continuity
// that must hold for any queue state.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "scheduling/scheduler.h"

namespace bdps {
namespace {

/// Randomised queue generator shared by the property suites.
struct RandomQueue {
  std::vector<std::unique_ptr<Subscription>> subs;
  std::vector<std::unique_ptr<SubscriptionEntry>> entries;
  std::vector<QueuedMessage> queue;
  SchedulingContext context{0.0, 3750.0};

  explicit RandomQueue(std::uint64_t seed, double price_scale = 1.0) {
    Rng rng(seed);
    const std::size_t depth = 2 + rng.uniform_index(10);
    for (std::size_t m = 0; m < depth; ++m) {
      auto message = std::make_shared<Message>(
          static_cast<MessageId>(m), 0, -rng.uniform(0.0, 25000.0), 50.0,
          std::vector<Attribute>{});
      QueuedMessage queued{std::move(message), 0.0, {}};
      const std::size_t targets = 1 + rng.uniform_index(5);
      for (std::size_t t = 0; t < targets; ++t) {
        auto sub = std::make_unique<Subscription>();
        sub->allowed_delay = seconds(5.0 + rng.uniform(0.0, 55.0));
        sub->price = (1.0 + rng.uniform_index(3)) * price_scale;
        auto entry = std::make_unique<SubscriptionEntry>();
        entry->subscription = sub.get();
        entry->path =
            PathStats{1 + static_cast<int>(rng.uniform_index(4)),
                      rng.uniform(50.0, 300.0), rng.uniform(100.0, 3000.0)};
        queued.targets.push_back(entry.get());
        subs.push_back(std::move(sub));
        entries.push_back(std::move(entry));
      }
      precompute_scores(queued, 2.0);
      queue.push_back(std::move(queued));
    }
  }
};

class StrategyProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StrategyProperties, EbPickInvariantUnderPriceScaling) {
  // Scaling every price by the same factor cannot change the argmax.
  const RandomQueue base(GetParam(), 1.0);
  const RandomQueue scaled(GetParam(), 7.5);
  const auto eb = make_strategy(StrategyKind::kEb);
  EXPECT_EQ(eb->reference_pick(base.queue, base.context),
            eb->reference_pick(scaled.queue, scaled.context));
  const auto pc = make_strategy(StrategyKind::kPc);
  EXPECT_EQ(pc->reference_pick(base.queue, base.context),
            pc->reference_pick(scaled.queue, scaled.context));
}

TEST_P(StrategyProperties, MetricsAreFiniteAndBounded) {
  const RandomQueue rig(GetParam());
  double total_price_bound = 0.0;
  for (const auto& q : rig.queue) {
    const double eb = expected_benefit(q, rig.context);
    const double eb_postponed = postponed_benefit(q, rig.context);
    const double pc = postponing_cost(q, rig.context);
    double price_sum = 0.0;
    for (const auto* t : q.targets) price_sum += t->subscription->price;
    total_price_bound += price_sum;

    EXPECT_GE(eb, 0.0);
    EXPECT_LE(eb, price_sum + 1e-9);
    EXPECT_GE(eb_postponed, 0.0);
    EXPECT_LE(eb_postponed, eb + 1e-9)
        << "postponing can never increase the expected benefit";
    EXPECT_GE(pc, -1e-9);
    EXPECT_LE(pc, price_sum + 1e-9);
  }
  EXPECT_GT(total_price_bound, 0.0);
}

TEST_P(StrategyProperties, EbpcInterpolatesItsEndpoints) {
  const RandomQueue rig(GetParam());
  for (const auto& q : rig.queue) {
    const double eb = expected_benefit(q, rig.context);
    const double pc = postponing_cost(q, rig.context);
    for (double r = 0.0; r <= 1.0; r += 0.1) {
      const double ebpc = ebpc_metric(q, rig.context, r);
      EXPECT_NEAR(ebpc, r * eb + (1.0 - r) * pc, 1e-9);
      EXPECT_GE(ebpc, std::min(eb, pc) - 1e-9);
      EXPECT_LE(ebpc, std::max(eb, pc) + 1e-9);
    }
  }
}

TEST_P(StrategyProperties, PickedIndexIsAlwaysValid) {
  const RandomQueue rig(GetParam());
  for (const StrategyKind kind :
       {StrategyKind::kFifo, StrategyKind::kRemainingLifetime,
        StrategyKind::kEb, StrategyKind::kPc, StrategyKind::kEbpc,
        StrategyKind::kLowerBound}) {
    const auto scheduler = make_strategy(kind, 0.5);
    const std::size_t pick = scheduler->reference_pick(rig.queue, rig.context);
    EXPECT_LT(pick, rig.queue.size()) << strategy_name(kind);
  }
}

TEST_P(StrategyProperties, EbChoiceMaximisesTheMetric) {
  const RandomQueue rig(GetParam());
  const auto eb = make_strategy(StrategyKind::kEb);
  const std::size_t pick = eb->reference_pick(rig.queue, rig.context);
  const double best = expected_benefit(rig.queue[pick], rig.context);
  for (const auto& q : rig.queue) {
    EXPECT_LE(expected_benefit(q, rig.context), best + 1e-12);
  }
}

TEST_P(StrategyProperties, FifoIgnoresTheContextEntirely) {
  const RandomQueue rig(GetParam());
  const auto fifo = make_strategy(StrategyKind::kFifo);
  const SchedulingContext shifted{rig.context.now + 1e6, 99999.0};
  EXPECT_EQ(fifo->reference_pick(rig.queue, rig.context),
            fifo->reference_pick(rig.queue, shifted));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyProperties,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace bdps
