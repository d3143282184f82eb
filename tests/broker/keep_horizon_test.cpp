// Keep horizons (scheduling/purge.h: keep_horizon) against a purge that
// classifies every row.
//
// OutputQueue::take_next classifies a row only after its keep horizon has
// passed.  The contract is that nothing observable moves: random enqueue,
// take and tick streams drive an OutputQueue and a reference queue side
// by side, the reference running the scan that classifies every row
// (classify_purge with the same swap-with-back removal) and
// Strategy::reference_pick.  Purged ids (in order), PurgeStats, picks and
// the remaining rows must agree after every operation, and so must a
// stable purge_queue pass over the same rows; OutputQueue::check_invariants
// runs after every operation too.  The streams cover eq. (11) epsilons
// from off to nearly 1, the expiry rule on and off, deterministic paths,
// rows without a deadline and rows without targets, policy and clock
// changes mid-stream, and one-row queues for every strategy.  The queue
// scores each row with its own PD whatever the row carried: the reference
// holds the rows folded with that PD, the queue is handed them bare,
// folded with it, or folded with another PD.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "broker/output_queue.h"
#include "common/random.h"
#include "scheduling/purge.h"

namespace bdps {
namespace {

constexpr StrategyKind kAllKinds[] = {
    StrategyKind::kFifo, StrategyKind::kRemainingLifetime, StrategyKind::kEb,
    StrategyKind::kPc,   StrategyKind::kEbpc,              StrategyKind::kLowerBound,
};

constexpr double kEpsilons[] = {0.0, 5e-4, 0.3, 0.9999};

struct RowPool {
  std::vector<std::unique_ptr<Subscription>> subs;
  std::vector<std::unique_ptr<SubscriptionEntry>> entries;
  Rng rng;
  MessageId next_id = 0;

  explicit RowPool(std::uint64_t seed) : rng(seed) {}

  QueuedMessage make_row(TimeMs now) {
    TimeMs message_deadline = kNoDeadline;
    if (rng.uniform_index(4) == 0) {
      message_deadline = seconds(2.0 + rng.uniform(0.0, 40.0));
    }
    auto message = std::make_shared<Message>(
        next_id++, 0, now - rng.uniform(0.0, 30000.0),
        1.0 + rng.uniform(0.0, 100.0), std::vector<Attribute>{},
        message_deadline);
    QueuedMessage queued{std::move(message), now, {}};
    const std::size_t targets = rng.uniform_index(5);  // 0 = no targets.
    for (std::size_t t = 0; t < targets; ++t) {
      auto sub = std::make_unique<Subscription>();
      if (rng.uniform_index(6) != 0) {  // Else no deadline.
        sub->allowed_delay = seconds(2.0 + rng.uniform(0.0, 50.0));
      }
      sub->price = 1.0 + rng.uniform_index(3);
      auto entry = std::make_unique<SubscriptionEntry>();
      entry->subscription = sub.get();
      // One in five paths is deterministic (inv_size_sigma = +inf).
      const double variance =
          rng.uniform_index(5) == 0 ? 0.0 : rng.uniform(10.0, 3000.0);
      entry->path = PathStats{static_cast<int>(rng.uniform_index(4)),
                              rng.uniform(20.0, 300.0), variance};
      queued.targets.push_back(entry.get());
      subs.push_back(std::move(sub));
      entries.push_back(std::move(entry));
    }
    return queued;
  }
};

/// The pre-horizon take_next: classifies every row, removal swaps the back
/// row in, then the reference argmax.
std::optional<QueuedMessage> reference_take(std::vector<QueuedMessage>& queue,
                                            const Strategy& strategy,
                                            const SchedulingContext& context,
                                            const PurgePolicy& policy,
                                            PurgeStats& stats,
                                            std::vector<MessageId>& purged) {
  for (std::size_t i = 0; i < queue.size();) {
    switch (classify_purge(queue[i], context, policy)) {
      case PurgeVerdict::kKeep:
        ++i;
        continue;
      case PurgeVerdict::kExpired:
        ++stats.expired;
        break;
      case PurgeVerdict::kHopeless:
        ++stats.hopeless;
        break;
    }
    purged.push_back(queue[i].message->id());
    take_at(queue, i);
  }
  if (queue.empty()) return std::nullopt;
  return take_at(queue, strategy.reference_pick(queue, context));
}

std::vector<MessageId> ids_of(const std::vector<QueuedMessage>& queue) {
  std::vector<MessageId> ids;
  for (const QueuedMessage& queued : queue) ids.push_back(queued.message->id());
  return ids;
}

PurgePolicy random_policy(Rng& rng) {
  PurgePolicy policy;
  policy.epsilon = kEpsilons[rng.uniform_index(std::size(kEpsilons))];
  policy.drop_expired = rng.uniform_index(3) != 0;
  return policy;
}

void run_stream(StrategyKind kind, std::uint64_t seed, std::size_t max_depth,
                std::size_t ops) {
  const Strategy strategy(kind, 0.3);
  RowPool pool(seed);
  Rng rng(seed ^ 0x5bd1e995ULL);
  constexpr TimeMs kPd = 2.0;
  OutputQueue queue(1, 0, LinkParams{100.0, 20.0}, &strategy, kPd);
  std::vector<QueuedMessage> reference;

  TimeMs now = 100000.0;
  PurgePolicy policy = random_policy(rng);
  std::size_t purged_total = 0;
  std::size_t kept_total = 0;
  for (std::size_t op = 0; op < ops; ++op) {
    now += rng.uniform(0.0, 1500.0);
    if (rng.uniform_index(20) == 0) now -= rng.uniform(0.0, 6000.0);
    if (rng.uniform_index(25) == 0) policy = random_policy(rng);
    const SchedulingContext context{now, rng.uniform(0.0, 5000.0)};
    const std::string where = strategy.name() + " seed " +
                              std::to_string(seed) + " op " +
                              std::to_string(op);

    const std::size_t pick = rng.uniform_index(16);
    if (pick < 9) {  // Enqueue: bare, folded with the PD or with another.
      if (queue.size() >= max_depth) continue;
      QueuedMessage row = pool.make_row(now);
      QueuedMessage handed = row;
      if (rng.uniform_index(4) != 0) {
        precompute_scores(handed, rng.uniform_index(8) == 0 ? kPd + 1.0 : kPd);
      }
      precompute_scores(row, kPd);
      reference.push_back(std::move(row));
      queue.enqueue(std::move(handed));
    } else if (pick < 15) {  // Purge + pick.
      PurgeStats got_stats;
      std::vector<MessageId> got_purged;
      const std::optional<QueuedMessage> got =
          queue.take_next(context, policy, &got_stats, &got_purged);

      // A stable purge over the same rows drops the same set.
      std::vector<QueuedMessage> stable = reference;
      std::vector<MessageId> stable_purged;
      const PurgeStats stable_stats =
          purge_queue(stable, context, policy, &stable_purged);

      PurgeStats want_stats;
      std::vector<MessageId> want_purged;
      const std::optional<QueuedMessage> want = reference_take(
          reference, strategy, context, policy, want_stats, want_purged);

      ASSERT_EQ(got_purged, want_purged) << where;
      ASSERT_EQ(got_stats.expired, want_stats.expired) << where;
      ASSERT_EQ(got_stats.hopeless, want_stats.hopeless) << where;
      ASSERT_EQ(stable_stats.expired, want_stats.expired) << where;
      ASSERT_EQ(stable_stats.hopeless, want_stats.hopeless) << where;
      std::sort(stable_purged.begin(), stable_purged.end());
      std::sort(want_purged.begin(), want_purged.end());
      ASSERT_EQ(stable_purged, want_purged) << where;
      ASSERT_EQ(got.has_value(), want.has_value()) << where;
      if (got.has_value()) {
        ASSERT_EQ(got->message->id(), want->message->id()) << where;
      }
      purged_total += want_purged.size();
      kept_total += reference.size() + (want.has_value() ? 1 : 0);
    } else {  // Link failure.
      queue.clear();
      reference.clear();
    }
    ASSERT_EQ(ids_of(queue.messages()), ids_of(reference)) << where;
    ASSERT_NO_THROW(queue.check_invariants(context)) << where;
  }
  // The streams exercise both outcomes.
  EXPECT_GT(purged_total, 0u) << strategy.name() << " seed " << seed;
  EXPECT_GT(kept_total, 0u) << strategy.name() << " seed " << seed;
}

class KeepHorizonOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KeepHorizonOracle, TakeNextEqualsFullClassification) {
  for (const StrategyKind kind : kAllKinds) {
    run_stream(kind, GetParam() * 7919 + 3, 24, 400);
  }
}

TEST_P(KeepHorizonOracle, OneRowQueuesEqualFullClassification) {
  for (const StrategyKind kind : kAllKinds) {
    run_stream(kind, GetParam() * 104729 + 5, 1, 300);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeepHorizonOracle,
                         ::testing::Range<std::uint64_t>(1, 7));

/// One target, built by hand.
struct OneTarget {
  Subscription sub;
  SubscriptionEntry entry;
  QueuedMessage row;

  OneTarget(TimeMs deadline, double variance) {
    sub.allowed_delay = deadline;
    entry.subscription = &sub;
    entry.path = PathStats{2, 150.0, variance};
    row = QueuedMessage{std::make_shared<Message>(7, 0, 0.0, 40.0,
                                                  std::vector<Attribute>{}),
                        0.0,
                        {&entry}};
    precompute_scores(row, 2.0);
  }
};

TEST(KeepHorizon, IsAtOrBeforeTheLastKeepInstant) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double epsilon : kEpsilons) {
    for (const bool drop_expired : {false, true}) {
      for (const double variance : {0.0, 1e-9, 40.0, 2500.0}) {
        const PurgePolicy policy{epsilon, drop_expired};
        const OneTarget one(seconds(20.0), variance);
        const TimeMs horizon =
            keep_horizon(one.row, policy, keep_horizon_z(policy));
        ASSERT_FALSE(std::isnan(horizon));
        if (epsilon == 0.0 && !drop_expired) {
          EXPECT_EQ(horizon, kInf);
          continue;
        }
        ASSERT_LT(horizon, kInf);
        // Kept just before the horizon; and the horizon is tight: the
        // exact rule purges just past its margin.
        const SchedulingContext before{std::nextafter(horizon, -kInf), 0.0};
        EXPECT_EQ(classify_purge(one.row, before, policy),
                  PurgeVerdict::kKeep)
            << epsilon << " " << drop_expired << " " << variance;
        // Past the horizon's margin (1e-3 of the target's size * sigma).
        const SchedulingContext later{
            horizon + 1.0 + 2e-3 * 40.0 * std::sqrt(variance), 0.0};
        EXPECT_NE(classify_purge(one.row, later, policy), PurgeVerdict::kKeep)
            << epsilon << " " << drop_expired << " " << variance;
      }
    }
  }
}

TEST(KeepHorizon, RowsWithoutDeadlineOrTargetsAreKeptForever) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const PurgePolicy policy;
  const OneTarget unbounded(kNoDeadline, 400.0);
  EXPECT_EQ(keep_horizon(unbounded.row, policy, keep_horizon_z(policy)), kInf);
  QueuedMessage empty{std::make_shared<Message>(1, 0, 0.0, 40.0,
                                                std::vector<Attribute>{}),
                      0.0,
                      {}};
  EXPECT_EQ(keep_horizon(empty, policy, keep_horizon_z(policy)), kInf);
  // An epsilon too close to 1 gets no safe horizon: always classified.
  const PurgePolicy extreme{1.0 - 1e-12, true};
  EXPECT_EQ(keep_horizon_z(extreme), kInf);
  const OneTarget bounded(seconds(20.0), 400.0);
  EXPECT_EQ(keep_horizon(bounded.row, extreme, keep_horizon_z(extreme)), -kInf);
}

}  // namespace
}  // namespace bdps
