#include "broker/output_queue.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace bdps {

SchedulerState& OutputQueue::state() {
  if (!state_) {
    state_ = strategy_->make_state(&queue_);
    // Replay rows enqueued before the state existed (or present when a
    // move dropped the previous state).
    for (std::size_t i = 0; i < queue_.size(); ++i) state_->on_enqueue(i);
  }
  return *state_;
}

void OutputQueue::enqueue(QueuedMessage queued) {
  // Mint (and replay) the state before growing the queue, so the new row
  // is announced exactly once.
  SchedulerState& scheduler = state();
  // A row already folded with the horizons' PD gets its horizon now; any
  // other waits for the next take_next.
  TimeMs horizon = std::numeric_limits<double>::quiet_NaN();
  if (queued.scored_pd == horizon_pd_ &&
      queued.scored.size() == queued.targets.size()) {
    horizon = keep_horizon(queued, horizon_pd_, horizon_policy_, horizon_z_);
  }
  earliest_keep_until_ = std::isnan(horizon)
                             ? -kNever
                             : std::min(earliest_keep_until_, horizon);
  queue_.push_back(std::move(queued));
  keep_until_.push_back(horizon);
  scheduler.on_enqueue(queue_.size() - 1);
}

QueuedMessage OutputQueue::remove_at(std::size_t index) {
  keep_until_[index] = keep_until_.back();
  keep_until_.pop_back();
  return take_at(queue_, index);
}

std::optional<QueuedMessage> OutputQueue::take_next(
    const SchedulingContext& context, const PurgePolicy& policy,
    PurgeStats* purge_stats, std::vector<MessageId>* purged_ids) {
  SchedulerState& scheduler = state();
  scheduler.on_tick(context);

  // Horizons hold for one PD and one policy; a change voids them all.  The
  // `!=` also catches the initial NaN.
  if (context.processing_delay != horizon_pd_ ||
      policy.epsilon != horizon_policy_.epsilon ||
      policy.drop_expired != horizon_policy_.drop_expired) {
    horizon_pd_ = context.processing_delay;
    horizon_policy_ = policy;
    horizon_z_ = keep_horizon_z(policy);
    keep_until_.assign(queue_.size(), std::numeric_limits<double>::quiet_NaN());
    earliest_keep_until_ = -kNever;
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
      TimeMs& horizon = keep_until_[i];
      if (std::isnan(horizon)) {
        horizon = keep_horizon(queue_[i], horizon_pd_, horizon_policy_,
                               horizon_z_);
      }
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
      scheduler.on_remove(i);
      remove_at(i);  // Dropped.
    }
    earliest_keep_until_ = earliest;
  }
  if (purge_stats != nullptr) *purge_stats += stats;
  if (queue_.empty()) return std::nullopt;

  const std::size_t choice = scheduler.pick(context);
  scheduler.on_remove(choice);
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
    const TimeMs horizon = keep_until_[i];
    if (std::isnan(horizon)) {
      if (earliest_keep_until_ != -kNever) {
        fail("a row awaits its horizon but the purge scan may be skipped");
      }
      continue;
    }
    if (horizon < earliest_keep_until_) {
      fail("row " + std::to_string(i) +
           "'s horizon is before the queue's earliest");
    }
    if (horizon == -kNever) continue;
    // Just before the horizon the exact rule must still keep the row.
    const TimeMs before = horizon == kNever
                              ? std::numeric_limits<double>::max()
                              : std::nextafter(horizon, -kNever);
    const SchedulingContext at{before, horizon_pd_, 0.0};
    if (classify_purge(queue_[i], at, horizon_policy_) != PurgeVerdict::kKeep) {
      fail("row " + std::to_string(i) +
           "'s keep horizon is past its last keep instant");
    }
  }
  if (queue_.empty()) return;
  SchedulerState& scheduler = state();
  scheduler.check_invariants(context);
  const std::size_t got = scheduler.pick(context);
  const std::size_t want = strategy_->reference_pick(queue_, context);
  if (got != want) {
    fail("the scheduler picks row " + std::to_string(got) +
         ", the reference row " + std::to_string(want));
  }
}

}  // namespace bdps
