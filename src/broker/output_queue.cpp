#include "broker/output_queue.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace bdps {

void OutputQueue::enqueue(QueuedMessage queued) {
  precompute_scores(queued, processing_delay_);
  const TimeMs horizon = keep_horizon(queued, horizon_policy_, horizon_z_);
  earliest_keep_until_ = std::min(earliest_keep_until_, horizon);
  queue_.push_back(std::move(queued));
  keep_until_.push_back(horizon);
  state_->on_enqueue(queue_, queue_.size() - 1);
}

QueuedMessage OutputQueue::remove_at(std::size_t index) {
  keep_until_[index] = keep_until_.back();
  keep_until_.pop_back();
  return take_at(queue_, index);
}

std::optional<QueuedMessage> OutputQueue::take_next(
    const SchedulingContext& context, const PurgePolicy& policy,
    PurgeStats* purge_stats, std::vector<MessageId>* purged_ids) {
  state_->on_tick(queue_, context);

  // Horizons hold for one policy; a change recomputes them all.
  if (policy.epsilon != horizon_policy_.epsilon ||
      policy.drop_expired != horizon_policy_.drop_expired) {
    horizon_policy_ = policy;
    horizon_z_ = keep_horizon_z(policy);
    earliest_keep_until_ = kNever;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      keep_until_[i] = keep_horizon(queue_[i], horizon_policy_, horizon_z_);
      earliest_keep_until_ = std::min(earliest_keep_until_, keep_until_[i]);
    }
  }

  // Pre-send purge (§5.4), hook-aware: removal swaps the back row in, so
  // the swapped row is examined at the same index.  A row is classified
  // only once its keep horizon has passed — before it classify_purge
  // keeps the row — so the purged ids, their order and the stats equal a
  // scan that classifies every row.  The scan itself is skipped while no
  // horizon can have passed.
  PurgeStats stats;
  if (!(context.now < earliest_keep_until_)) {
    TimeMs earliest = kNever;
    for (std::size_t i = 0; i < queue_.size();) {
      const TimeMs horizon = keep_until_[i];
      if (context.now < horizon) {
        earliest = std::min(earliest, horizon);
        ++i;
        continue;
      }
      switch (classify_purge(queue_[i], context, policy)) {
        case PurgeVerdict::kKeep:
          earliest = std::min(earliest, horizon);
          ++i;
          continue;
        case PurgeVerdict::kExpired:
          ++stats.expired;
          break;
        case PurgeVerdict::kHopeless:
          ++stats.hopeless;
          break;
      }
      if (purged_ids != nullptr) {
        purged_ids->push_back(queue_[i].message->id());
      }
      state_->on_remove(queue_, i);
      remove_at(i);  // Dropped.
    }
    earliest_keep_until_ = earliest;
  }
  if (purge_stats != nullptr) *purge_stats += stats;
  if (queue_.empty()) return std::nullopt;

  const std::size_t choice = state_->pick(queue_, context);
  state_->on_remove(queue_, choice);
  return remove_at(choice);
}

void OutputQueue::check_invariants(const SchedulingContext& context) {
  const auto fail = [this](const std::string& what) {
    throw std::logic_error("OutputQueue toward broker " +
                           std::to_string(neighbor_) + ": " + what);
  };
  if (keep_until_.size() != queue_.size()) {
    fail("the keep horizons do not mirror the queue");
  }
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].scored.size() != queue_[i].targets.size()) {
      fail("row " + std::to_string(i) + " has " +
           std::to_string(queue_[i].scored.size()) + " kernel rows for " +
           std::to_string(queue_[i].targets.size()) + " targets");
    }
    const TimeMs horizon = keep_until_[i];
    if (!(horizon >= earliest_keep_until_)) {  // NaN fails too.
      fail("row " + std::to_string(i) +
           "'s horizon is before the queue's earliest");
    }
    if (horizon == -kNever) continue;
    // Just before the horizon the exact rule must still keep the row.
    const TimeMs before = horizon == kNever
                              ? std::numeric_limits<double>::max()
                              : std::nextafter(horizon, -kNever);
    const SchedulingContext at{before, 0.0};
    if (classify_purge(queue_[i], at, horizon_policy_) != PurgeVerdict::kKeep) {
      fail("row " + std::to_string(i) +
           "'s keep horizon is past its last keep instant");
    }
  }
  if (queue_.empty()) return;
  state_->check_invariants(queue_, context);
  const std::size_t got = state_->pick(queue_, context);
  const std::size_t want = strategy_->reference_pick(queue_, context);
  if (got != want) {
    fail("the scheduler picks row " + std::to_string(got) +
         ", the reference row " + std::to_string(want));
  }
}

}  // namespace bdps
