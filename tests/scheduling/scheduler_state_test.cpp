// Equivalence suite for the stateful Strategy / SchedulerState API.
//
// Contract under test: every SchedulerState pick is identical to the
// stateless reference argmax (Strategy::reference_pick) no matter how the
// queue got into its current shape — across randomized interleavings of
// enqueue, arbitrary removal, purge and tick at advancing (and
// occasionally regressing) clocks, over SSD and PSD target shapes and
// depths 1..4096.  Rows are scored once, with one PD per queue, as
// OutputQueue::enqueue scores them.  Each state's check_invariants (row
// mirror, heap order, score bounds at or above the exact scores) runs after
// every operation.
#include <gtest/gtest.h>

#include <memory>

#include "broker/broker.h"
#include "common/random.h"
#include "scheduling/purge.h"
#include "scheduling/scheduler.h"

namespace bdps {
namespace {

constexpr StrategyKind kAllKinds[] = {
    StrategyKind::kFifo, StrategyKind::kRemainingLifetime, StrategyKind::kEb,
    StrategyKind::kPc,   StrategyKind::kEbpc,              StrategyKind::kLowerBound,
};

enum class Shape { kSsd, kPsd };

/// Pool of rows for the interleaving driver.  Generates messages with
/// SSD-style per-subscription deadlines/prices or PSD-style
/// message-stamped deadlines with unit prices; occasionally no deadline at
/// all, deterministic paths, empty target lists and duplicated payloads
/// (distinct ids, identical scores) to force exact ties.
struct RowFactory {
  std::vector<std::unique_ptr<Subscription>> subs;
  std::vector<std::unique_ptr<SubscriptionEntry>> entries;
  Rng rng;
  Shape shape;
  TimeMs pd;  // The queue's processing delay, folded into every row.
  MessageId next_id = 0;

  RowFactory(std::uint64_t seed, Shape shape_in)
      : rng(seed), shape(shape_in), pd(rng.uniform(0.0, 5.0)) {}

  QueuedMessage make_row(TimeMs now) {
    TimeMs message_deadline = kNoDeadline;
    if (shape == Shape::kPsd && rng.uniform_index(8) != 0) {
      message_deadline = seconds(5.0 + rng.uniform(0.0, 55.0));
    }
    auto message = std::make_shared<Message>(
        next_id++, 0, now - rng.uniform(0.0, 40000.0),
        1.0 + rng.uniform(0.0, 100.0), std::vector<Attribute>{},
        message_deadline);
    QueuedMessage queued{std::move(message), now - rng.uniform(0.0, 1000.0),
                         {}};
    const std::size_t targets = rng.uniform_index(6);  // 0..5; 0 = no targets.
    for (std::size_t t = 0; t < targets; ++t) {
      auto sub = std::make_unique<Subscription>();
      if (shape == Shape::kSsd && rng.uniform_index(8) != 0) {
        sub->allowed_delay = seconds(5.0 + rng.uniform(0.0, 55.0));
      }
      sub->price = shape == Shape::kPsd ? 1.0 : 1.0 + rng.uniform_index(4);
      auto entry = std::make_unique<SubscriptionEntry>();
      entry->subscription = sub.get();
      const double variance =
          rng.uniform_index(10) == 0 ? 0.0 : rng.uniform(100.0, 3000.0);
      entry->path = PathStats{static_cast<int>(rng.uniform_index(5)),
                              rng.uniform(50.0, 300.0), variance};
      queued.targets.push_back(entry.get());
      subs.push_back(std::move(sub));
      entries.push_back(std::move(entry));
    }
    precompute_scores(queued, pd);
    return queued;
  }

  /// Same targets and timing as `other`, new id: scores tie exactly, so the
  /// (enqueue_time, id) tie-break decides.
  QueuedMessage duplicate_row(const QueuedMessage& other) {
    const Message& m = *other.message;
    auto message = std::make_shared<Message>(
        next_id++, m.publisher(), m.publish_time(), m.size_kb(),
        std::vector<Attribute>{}, m.allowed_delay());
    QueuedMessage queued{std::move(message), other.enqueue_time,
                         other.targets};
    precompute_scores(queued, pd);
    return queued;
  }
};

/// Drives one (strategy, shape) pair through a randomized op stream,
/// checking the stateful pick against the reference argmax after every
/// mutation batch.
void run_interleaving(StrategyKind kind, double weight, Shape shape,
                      std::uint64_t seed, std::size_t max_depth,
                      std::size_t ops) {
  const Strategy strategy(kind, weight);
  RowFactory factory(seed, shape);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);

  std::vector<QueuedMessage> queue;
  const std::unique_ptr<SchedulerState> state = strategy.make_state();
  PurgePolicy policy;  // Paper defaults: eps = 0.05%, drop expired.

  TimeMs now = 500000.0;
  for (std::size_t op = 0; op < ops; ++op) {
    now += rng.uniform(0.0, 2000.0);
    if (rng.uniform_index(16) == 0) now -= rng.uniform(0.0, 5000.0);
    const SchedulingContext context{now, rng.uniform(0.0, 8000.0)};
    state->on_tick(queue, context);

    switch (rng.uniform_index(4)) {
      case 0:
      case 1: {  // Enqueue (occasionally an exact-tie duplicate).
        if (queue.size() >= max_depth) break;
        QueuedMessage row = !queue.empty() && rng.uniform_index(6) == 0
                                ? factory.duplicate_row(
                                      queue[rng.uniform_index(queue.size())])
                                : factory.make_row(now);
        queue.push_back(std::move(row));
        state->on_enqueue(queue, queue.size() - 1);
        break;
      }
      case 2: {  // Arbitrary removal (losses, dedup, external drops).
        if (queue.empty()) break;
        const std::size_t victim = rng.uniform_index(queue.size());
        state->on_remove(queue, victim);
        take_at(queue, victim);
        break;
      }
      default: {  // The OutputQueue purge scan, hook for hook.
        for (std::size_t i = 0; i < queue.size();) {
          if (classify_purge(queue[i], context, policy) ==
              PurgeVerdict::kKeep) {
            ++i;
            continue;
          }
          state->on_remove(queue, i);
          take_at(queue, i);
        }
        break;
      }
    }

    ASSERT_NO_THROW(state->check_invariants(queue, context))
        << strategy.name() << " op=" << op;
    if (queue.empty()) continue;
    const std::size_t got = state->pick(queue, context);
    const std::size_t want = strategy.reference_pick(queue, context);
    ASSERT_EQ(got, want)
        << strategy.name() << " depth=" << queue.size() << " op=" << op
        << " now=" << now;
    ASSERT_NO_THROW(state->check_invariants(queue, context))
        << strategy.name() << " op=" << op << " after the pick";
  }
}

class SchedulerStateEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerStateEquivalence, MatchesReferenceAcrossInterleavings) {
  for (const StrategyKind kind : kAllKinds) {
    for (const Shape shape : {Shape::kSsd, Shape::kPsd}) {
      run_interleaving(kind, 0.5, shape, GetParam() * 31 + 7, 64, 300);
    }
  }
}

TEST_P(SchedulerStateEquivalence, EbpcWeightsCoverTheEndpoints) {
  for (const double weight : {0.0, 0.3, 1.0}) {
    run_interleaving(StrategyKind::kEbpc, weight, Shape::kSsd,
                     GetParam() * 131 + 11, 48, 200);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerStateEquivalence,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(SchedulerStateEquivalence, EbpcBoundCoversScoresThatRoundAboveEb) {
  // With EB' = 0 the EBPC score r·EB + (1 − r)·EB equals EB exactly, but
  // for many (r, EB) pairs it rounds one ulp above it.  A bound of plain
  // EB is then below the score, and the scan could prune a row that beats
  // the running best by that ulp.
  Subscription sub;
  sub.allowed_delay = seconds(30.0);
  SubscriptionEntry entry;
  entry.subscription = &sub;
  entry.path = PathStats{2, 150.0, 800.0};
  std::vector<QueuedMessage> queue;
  for (MessageId id = 0; id < 2; ++id) {
    queue.push_back(QueuedMessage{
        std::make_shared<Message>(id, 0, 0.0, 50.0, std::vector<Attribute>{}),
        0.0,
        {&entry}});
    precompute_scores(queue.back(), 2.0);
  }
  // A huge FT pushes every postponed success to 0.
  const SchedulingContext context{20000.0, 1e9};
  const double eb = kernel_benefit_pair(queue[0], context).immediate;
  ASSERT_EQ(kernel_benefit_pair(queue[0], context).postponed, 0.0);
  double weight = -1.0;
  for (int step = 1; step < 1000 && weight < 0.0; ++step) {
    const double r = step / 1000.0;
    if (r * eb + (1.0 - r) * (eb - 0.0) > eb) weight = r;
  }
  ASSERT_GT(weight, 0.0) << "no weight rounds above EB " << eb;

  const Strategy strategy(StrategyKind::kEbpc, weight);
  const auto state = strategy.make_state();
  state->on_enqueue(queue, 0);
  state->on_enqueue(queue, 1);
  EXPECT_EQ(state->pick(queue, context),
            strategy.reference_pick(queue, context));
  EXPECT_NO_THROW(state->check_invariants(queue, context));
}

TEST(SchedulerStateEquivalence, LargestBoundFirstKeepsTheReferencePick) {
  // Row 0 is the weakest, so after the first pick the largest bound sits
  // further back.  Rows 1 and 2 carry identical targets: equal bounds and
  // equal scores, and row 2 wins the tie on its earlier enqueue, so the
  // largest-bound row scored first can be the tie's loser.  Row 3's loose
  // deadline gives it the largest EB; at the short FT its EB' is close to
  // it (a small PC score), at the huge FT every EB' is 0, so PC scores
  // equal their EB bounds and the rows tie on bound and score at once.
  // Scoring the largest bound first must not change the argmax.
  Subscription tight;
  tight.allowed_delay = seconds(12.0);
  Subscription mid;
  mid.allowed_delay = seconds(20.0);
  mid.price = 2.0;
  Subscription loose;
  loose.allowed_delay = seconds(200.0);
  loose.price = 2.0;
  const auto entry_of = [](const Subscription& sub) {
    SubscriptionEntry entry;
    entry.subscription = &sub;
    entry.path = PathStats{2, 150.0, 800.0};
    return entry;
  };
  const SubscriptionEntry e_tight = entry_of(tight);
  const SubscriptionEntry e_mid = entry_of(mid);
  const SubscriptionEntry e_loose = entry_of(loose);
  const auto row = [](MessageId id, TimeMs enqueue,
                      std::vector<const SubscriptionEntry*> targets) {
    QueuedMessage queued{
        std::make_shared<Message>(id, 0, 0.0, 50.0, std::vector<Attribute>{}),
        enqueue, std::move(targets)};
    precompute_scores(queued, 2.0);
    return queued;
  };

  for (const StrategyKind kind :
       {StrategyKind::kEb, StrategyKind::kPc, StrategyKind::kEbpc}) {
    for (const TimeMs ft : {3000.0, 1e9}) {
      const Strategy strategy(kind, 0.5);
      std::vector<QueuedMessage> queue;
      queue.push_back(row(0, 0.0, {&e_tight}));
      queue.push_back(row(1, 5.0, {&e_mid, &e_mid}));
      queue.push_back(row(2, 1.0, {&e_mid, &e_mid}));
      queue.push_back(row(3, 2.0, {&e_loose, &e_loose}));
      const auto state = strategy.make_state();
      for (std::size_t i = 0; i < queue.size(); ++i) {
        state->on_enqueue(queue, i);
      }

      TimeMs now = 2000.0;
      const SchedulingContext first{now, ft};
      ASSERT_EQ(expected_benefit(queue[1], first),
                expected_benefit(queue[2], first));
      ASSERT_LT(expected_benefit(queue[0], first),
                expected_benefit(queue[1], first));
      ASSERT_EQ(state->pick(queue, first),
                strategy.reference_pick(queue, first))
          << strategy.name();
      while (!queue.empty()) {
        now += 700.0;
        const SchedulingContext context{now, ft};
        state->on_tick(queue, context);
        const std::size_t got = state->pick(queue, context);
        ASSERT_EQ(got, strategy.reference_pick(queue, context))
            << strategy.name() << " ft=" << ft << " depth=" << queue.size();
        ASSERT_NO_THROW(state->check_invariants(queue, context))
            << strategy.name();
        state->on_remove(queue, got);
        take_at(queue, got);
      }
    }
  }
}

TEST(SchedulerStateEquivalence, DeepQueuesMatchReference) {
  // Depth sweep 1..4096: build up in bulk, then spot-check picks while
  // draining a slice.  The reference rescan is O(depth · targets), so deep
  // depths compare a handful of picks rather than a full drain.
  for (const StrategyKind kind :
       {StrategyKind::kEbpc, StrategyKind::kRemainingLifetime}) {
    for (const std::size_t depth : {1u, 33u, 512u, 4096u}) {
      const Strategy strategy(kind, 0.5);
      RowFactory factory(depth * 17 + 3, Shape::kSsd);
      std::vector<QueuedMessage> queue;
      const auto state = strategy.make_state();
      TimeMs now = 500000.0;
      queue.reserve(depth);
      for (std::size_t i = 0; i < depth; ++i) {
        queue.push_back(factory.make_row(now));
        state->on_enqueue(queue, queue.size() - 1);
      }
      for (int round = 0; round < 6 && !queue.empty(); ++round) {
        now += 500.0;
        const SchedulingContext context{now, 3750.0};
        const std::size_t got = state->pick(queue, context);
        ASSERT_EQ(got, strategy.reference_pick(queue, context))
            << strategy.name() << " depth=" << depth << " round=" << round;
        state->on_remove(queue, got);
        take_at(queue, got);
      }
    }
  }
}

}  // namespace
}  // namespace bdps
