// Property test for the precomputed scoring kernel (scheduling/kernel.h).
//
// The kernel folds the time-invariant parts of eq. 4–7 into flat
// ScoredTarget rows at enqueue time; this suite re-implements eq. 3–10
// directly (independent of both the kernel AND scheduling/success.cpp) and
// asserts, over randomized queues spanning all six strategies, queue
// depths, and SSD/PSD/both target shapes, that
//
//   * every kernel-backed metric agrees with the reference formula to
//     1e-12 (relative, with an absolute floor), and
//   * every strategy's pick is reference-optimal: the reference score of
//     the kernel's choice equals the reference maximum to the same
//     tolerance (exact ties may legitimately resolve to either index).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.h"
#include "scheduling/purge.h"
#include "scheduling/scheduler.h"

namespace bdps {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Reference implementations, straight from the paper's equations ----

double ref_phi(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

TimeMs ref_deadline(const SubscriptionEntry& e, const Message& m) {
  return std::min(e.subscription->allowed_delay, m.allowed_delay());
}

// success(s, m) of eq. (5) / (7).
double ref_success(const SubscriptionEntry& e, const Message& m, TimeMs now,
                   TimeMs pd, TimeMs extra) {
  const TimeMs deadline = ref_deadline(e, m);
  if (deadline == kInf) return 1.0;
  const TimeMs budget =
      deadline - (now - m.publish_time()) - extra - e.path.hop_brokers * pd;
  const double mean = m.size_kb() * e.path.mean_ms_per_kb;
  const double sd = m.size_kb() * std::sqrt(e.path.variance);
  if (sd <= 0.0) return budget >= mean ? 1.0 : 0.0;
  return ref_phi((budget - mean) / sd);
}

// The reference scores take PD explicitly: the kernel rows carry it folded.
double ref_eb(const QueuedMessage& q, const SchedulingContext& c, TimeMs pd,
              TimeMs extra = 0.0) {
  double total = 0.0;
  for (const SubscriptionEntry* e : q.targets) {
    total += e->subscription->price *
             ref_success(*e, *q.message, c.now, pd, extra);
  }
  return total;
}

double ref_pc(const QueuedMessage& q, const SchedulingContext& c, TimeMs pd) {
  return ref_eb(q, c, pd) - ref_eb(q, c, pd, c.head_of_line_estimate);
}

double ref_ebpc(const QueuedMessage& q, const SchedulingContext& c, TimeMs pd,
                double r) {
  return r * ref_eb(q, c, pd) + (1.0 - r) * ref_pc(q, c, pd);
}

double ref_lb(const QueuedMessage& q, const SchedulingContext& c, TimeMs pd) {
  double total = 0.0;
  for (const SubscriptionEntry* e : q.targets) {
    const TimeMs deadline = ref_deadline(*e, *q.message);
    if (deadline == kInf) {
      total += e->subscription->price;
      continue;
    }
    const TimeMs budget = deadline - (c.now - q.message->publish_time()) -
                          e->path.hop_brokers * pd;
    const double pessimistic =
        e->path.mean_ms_per_kb + 2.0 * std::sqrt(e->path.variance);
    if (q.message->size_kb() * pessimistic <= budget) {
      total += e->subscription->price;
    }
  }
  return total;
}

TimeMs ref_rl(const QueuedMessage& q, TimeMs now) {
  double total = 0.0;
  std::size_t bounded = 0;
  for (const SubscriptionEntry* e : q.targets) {
    const TimeMs deadline = ref_deadline(*e, *q.message);
    if (deadline == kInf) continue;
    total += deadline - (now - q.message->publish_time());
    ++bounded;
  }
  if (bounded == 0) return kInf;
  return total / static_cast<double>(bounded);
}

// ---- Randomized rig over SSD / PSD / both target shapes ----

enum class Shape { kSsd, kPsd, kBoth };

struct RandomRig {
  std::vector<std::unique_ptr<Subscription>> subs;
  std::vector<std::unique_ptr<SubscriptionEntry>> entries;
  std::vector<QueuedMessage> queue;
  SchedulingContext context;
  TimeMs pd = 0.0;  // Folded into every row.

  RandomRig(std::uint64_t seed, Shape shape, std::size_t depth) {
    Rng rng(seed);
    context.now = 500000.0 + rng.uniform(0.0, 100000.0);
    pd = rng.uniform(0.0, 5.0);
    context.head_of_line_estimate = rng.uniform(0.0, 8000.0);

    for (std::size_t m = 0; m < depth; ++m) {
      // PSD stamps the deadline on the message; occasional no-deadline
      // messages exercise the unbounded path.
      TimeMs message_deadline = kNoDeadline;
      if (shape != Shape::kSsd && rng.uniform_index(8) != 0) {
        message_deadline = seconds(5.0 + rng.uniform(0.0, 55.0));
      }
      auto message = std::make_shared<Message>(
          static_cast<MessageId>(m), 0,
          context.now - rng.uniform(0.0, 40000.0),
          1.0 + rng.uniform(0.0, 100.0), std::vector<Attribute>{},
          message_deadline);
      QueuedMessage queued{message, context.now - rng.uniform(0.0, 1000.0),
                           {}};
      const std::size_t targets = 1 + rng.uniform_index(12);
      for (std::size_t t = 0; t < targets; ++t) {
        auto sub = std::make_unique<Subscription>();
        if (shape != Shape::kPsd && rng.uniform_index(8) != 0) {
          sub->allowed_delay = seconds(5.0 + rng.uniform(0.0, 55.0));
        }
        sub->price =
            shape == Shape::kPsd ? 1.0 : 1.0 + rng.uniform_index(4);
        auto entry = std::make_unique<SubscriptionEntry>();
        entry->subscription = sub.get();
        // Occasional zero-variance (deterministic) remaining paths.
        const double variance =
            rng.uniform_index(10) == 0 ? 0.0 : rng.uniform(100.0, 3000.0);
        entry->path = PathStats{static_cast<int>(rng.uniform_index(5)),
                                rng.uniform(50.0, 300.0), variance};
        queued.targets.push_back(entry.get());
        subs.push_back(std::move(sub));
        entries.push_back(std::move(entry));
      }
      precompute_scores(queued, pd);
      queue.push_back(std::move(queued));
    }
  }
};

double tolerance(double reference) {
  return 1e-12 * std::max(1.0, std::abs(reference));
}

/// Kernel pick must be reference-optimal (ties may pick either index).
void expect_reference_optimal(
    const Strategy& scheduler, const RandomRig& rig,
    double (*ref_score)(const QueuedMessage&, const SchedulingContext&,
                        TimeMs)) {
  const std::size_t pick = scheduler.reference_pick(rig.queue, rig.context);
  ASSERT_LT(pick, rig.queue.size());
  double best = -kInf;
  for (const QueuedMessage& q : rig.queue) {
    best = std::max(best, ref_score(q, rig.context, rig.pd));
  }
  const double picked = ref_score(rig.queue[pick], rig.context, rig.pd);
  if (picked == best) return;  // Exact agreement (covers the all -inf case).
  EXPECT_NEAR(picked, best, tolerance(best)) << scheduler.name();
}

class KernelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelProperty, MetricsMatchReferenceFormulas) {
  for (const Shape shape : {Shape::kSsd, Shape::kPsd, Shape::kBoth}) {
    for (const std::size_t depth : {1u, 7u, 33u, 96u}) {
      const RandomRig rig(GetParam() * 1000 + depth, shape, depth);
      for (const QueuedMessage& q : rig.queue) {
        const double eb_ref = ref_eb(q, rig.context, rig.pd);
        EXPECT_NEAR(expected_benefit(q, rig.context), eb_ref,
                    tolerance(eb_ref));

        const double ebp_ref = ref_eb(q, rig.context, rig.pd,
                                      rig.context.head_of_line_estimate);
        EXPECT_NEAR(postponed_benefit(q, rig.context), ebp_ref,
                    tolerance(ebp_ref));

        const double pc_ref = ref_pc(q, rig.context, rig.pd);
        EXPECT_NEAR(postponing_cost(q, rig.context), pc_ref,
                    tolerance(pc_ref));

        for (const double r : {0.0, 0.3, 0.5, 1.0}) {
          const double ebpc_ref = ref_ebpc(q, rig.context, rig.pd, r);
          EXPECT_NEAR(ebpc_metric(q, rig.context, r), ebpc_ref,
                      tolerance(ebpc_ref));
        }

        const double lb_ref = ref_lb(q, rig.context, rig.pd);
        EXPECT_NEAR(lower_bound_benefit(q, rig.context), lb_ref,
                    tolerance(lb_ref));

        const TimeMs rl_ref = ref_rl(q, rig.context.now);
        const TimeMs rl = mean_remaining_lifetime(q, rig.context.now);
        if (rl_ref == kInf) {
          EXPECT_EQ(rl, kNoDeadline);
        } else {
          EXPECT_NEAR(rl, rl_ref, 1e-9 * std::max(1.0, std::abs(rl_ref)));
        }
      }
    }
  }
}

TEST_P(KernelProperty, PicksAreReferenceOptimalForAllSixStrategies) {
  for (const Shape shape : {Shape::kSsd, Shape::kPsd, Shape::kBoth}) {
    for (const std::size_t depth : {1u, 7u, 33u, 96u}) {
      const RandomRig rig(GetParam() * 7777 + depth, shape, depth);

      expect_reference_optimal(
          *make_strategy(StrategyKind::kEb), rig,
          +[](const QueuedMessage& q, const SchedulingContext& c, TimeMs pd) {
            return ref_eb(q, c, pd);
          });
      expect_reference_optimal(
          *make_strategy(StrategyKind::kPc), rig,
          +[](const QueuedMessage& q, const SchedulingContext& c, TimeMs pd) {
            return ref_pc(q, c, pd);
          });
      expect_reference_optimal(
          *make_strategy(StrategyKind::kEbpc, 0.5), rig,
          +[](const QueuedMessage& q, const SchedulingContext& c, TimeMs pd) {
            return ref_ebpc(q, c, pd, 0.5);
          });
      expect_reference_optimal(
          *make_strategy(StrategyKind::kLowerBound), rig,
          +[](const QueuedMessage& q, const SchedulingContext& c, TimeMs pd) {
            return ref_lb(q, c, pd);
          });
      expect_reference_optimal(
          *make_strategy(StrategyKind::kRemainingLifetime), rig,
          +[](const QueuedMessage& q, const SchedulingContext& c, TimeMs) {
            const TimeMs rl = ref_rl(q, c.now);
            return rl == kInf ? -kInf : -rl;
          });
      expect_reference_optimal(
          *make_strategy(StrategyKind::kFifo), rig,
          +[](const QueuedMessage& q, const SchedulingContext&, TimeMs) {
            return -q.enqueue_time;
          });
    }
  }
}

TEST_P(KernelProperty, PurgeDecisionsMatchReferenceRule) {
  const RandomRig rig(GetParam() * 31, Shape::kBoth, 64);
  const PurgePolicy policy;  // Paper defaults: eps = 0.05%, drop expired.
  for (const QueuedMessage& q : rig.queue) {
    bool all_expired = !q.targets.empty();
    bool all_hopeless = !q.targets.empty();
    for (const SubscriptionEntry* e : q.targets) {
      const TimeMs deadline = ref_deadline(*e, *q.message);
      const TimeMs lifetime =
          deadline == kInf ? kInf
                           : deadline - (rig.context.now -
                                         q.message->publish_time());
      if (lifetime == kInf || lifetime > 0.0) all_expired = false;
      if (ref_success(*e, *q.message, rig.context.now, rig.pd, 0.0) >=
          policy.epsilon) {
        all_hopeless = false;
      }
    }
    EXPECT_EQ(should_purge(q, rig.context, policy),
              all_expired || all_hopeless);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---- Targeted edge cases the random rig is unlikely to hit exactly ----

TEST(KernelEdgeCases, DeterministicPathAtExactBoundaryCountsAsSuccess) {
  // Zero-variance path whose budget lands exactly on the mean transfer
  // time: the eq. (5) step function says "delivered" (budget >= mean); the
  // kernel's 0 * inf NaN must resolve the same way.
  Subscription sub;
  sub.allowed_delay = 5000.0 + 2.0 * 2.0;  // size*mu + NN*PD, exactly.
  sub.price = 3.0;
  SubscriptionEntry entry;
  entry.subscription = &sub;
  entry.path = PathStats{2, 100.0, 0.0};
  auto message = std::make_shared<Message>(
      0, 0, 0.0, 50.0, std::vector<Attribute>{});
  QueuedMessage q{message, 0.0, {&entry}};
  precompute_scores(q, 2.0);
  const SchedulingContext context{0.0, 0.0};
  EXPECT_DOUBLE_EQ(expected_benefit(q, context), 3.0);
  // One ULP past the deadline the step function drops to zero.
  const SchedulingContext late{std::nextafter(0.0, 1.0) + 1e-9, 0.0};
  EXPECT_DOUBLE_EQ(expected_benefit(q, late), 0.0);
}

TEST(KernelEdgeCases, RescoringAfterProcessingDelayChange) {
  // Kernel rows fold NN*PD into slack_const; rescoring a row with another
  // PD must replace its constants, not reuse stale ones.
  Subscription sub;
  sub.allowed_delay = seconds(10.0);  // Keeps Phi off its saturation ends.
  SubscriptionEntry entry;
  entry.subscription = &sub;
  entry.path = PathStats{3, 150.0, 800.0};
  auto message = std::make_shared<Message>(
      0, 0, 0.0, 50.0, std::vector<Attribute>{});
  QueuedMessage q{message, 0.0, {&entry}};
  const SchedulingContext context{1000.0, 500.0};
  precompute_scores(q, 2.0);
  const double with_pd2 = expected_benefit(q, context);
  precompute_scores(q, 50.0);
  const double with_pd50 = expected_benefit(q, context);
  EXPECT_NEAR(with_pd2, ref_eb(q, context, 2.0),
              tolerance(ref_eb(q, context, 2.0)));
  EXPECT_NEAR(with_pd50, ref_eb(q, context, 50.0),
              tolerance(ref_eb(q, context, 50.0)));
  EXPECT_GT(with_pd2, with_pd50);  // More PD per hop can only hurt.
}

TEST(KernelEdgeCases, PhiReuseMatchesThePlainLoopBitForBit) {
  // Targets that repeat the previous target's (slack_const,
  // inv_size_sigma) reuse its Phi; the sums must equal a plain per-target
  // loop exactly, prices differing or not, runs broken or not.
  Subscription a;
  a.allowed_delay = seconds(10.0);
  a.price = 1.0;
  Subscription a_pricier = a;  // Same constants, another price.
  a_pricier.price = 3.0;
  Subscription b;
  b.allowed_delay = seconds(14.0);
  b.price = 2.0;
  Subscription unbounded;  // No deadline: slack_const is +inf.
  const auto entry_of = [](const Subscription& sub, double variance) {
    SubscriptionEntry entry;
    entry.subscription = &sub;
    entry.path = PathStats{3, 150.0, variance};
    return entry;
  };
  const SubscriptionEntry ea = entry_of(a, 800.0);
  const SubscriptionEntry ea_pricier = entry_of(a_pricier, 800.0);
  const SubscriptionEntry eb = entry_of(b, 800.0);
  const SubscriptionEntry e_unbounded = entry_of(unbounded, 800.0);
  const SubscriptionEntry e_deterministic = entry_of(b, 0.0);
  auto message = std::make_shared<Message>(
      0, 0, 0.0, 50.0, std::vector<Attribute>{});
  QueuedMessage q{
      message,
      0.0,
      {&ea, &ea, &ea_pricier, &eb, &ea, &e_unbounded, &e_unbounded,
       &e_deterministic, &e_deterministic, &eb, &eb, &ea_pricier}};
  precompute_scores(q, 2.0);
  const auto plain = [&](double t) {
    double total = 0.0;
    for (const ScoredTarget& st : q.scored) {
      total += st.price * scored_success(st, t);
    }
    return total;
  };
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const TimeMs now : {0.0, 1500.0, 4000.0, 6000.0, 9000.0, 20000.0}) {
    const SchedulingContext context{now, 1800.0};
    const BenefitPair pair = kernel_benefit_pair(q, context);
    EXPECT_EQ(bits(pair.immediate), bits(plain(now))) << now;
    EXPECT_EQ(bits(pair.postponed), bits(plain(now + 1800.0))) << now;
    EXPECT_EQ(bits(expected_benefit(q, context)), bits(plain(now))) << now;
    EXPECT_EQ(bits(postponed_benefit(q, context)),
              bits(plain(now + 1800.0)))
        << now;
  }
}

}  // namespace
}  // namespace bdps
