// Per-neighbour output queue (§3.2, fig. 2).
//
// One instance exists per (broker, downstream neighbour) pair.  It owns the
// waiting messages, the link-busy flag (a send is in flight), the believed
// parameters of its link — from which the head-of-line estimate FT of
// eq. (6) is derived — its broker's processing delay PD, and the per-queue
// SchedulerState minted from the run's shared Strategy.  PD is a constant
// of the queue: enqueue folds every copy's kernel rows with it once
// (precompute_scores), and nothing re-folds them.  Every queue mutation is
// forwarded to the state's lifecycle hooks, so picks are incremental
// instead of full rescans.  The simulators and the live reactor drive the
// same class through BrokerStep; one queue is driven by one thread at a
// time (the live runtime keeps each queue on its source broker's worker).
//
// Beside the rows the queue mirrors one keep horizon per row
// (scheduling/purge.h, keep_horizon): an instant before which the §5.4
// purge keeps the row for certain.  It is fixed once the row is scored, so
// it is computed once per row, and the pre-send purge classifies only the
// rows whose horizon has passed; a purge-policy change recomputes every
// horizon.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "scheduling/purge.h"
#include "scheduling/scheduler.h"
#include "topology/graph.h"

namespace bdps {

class OutputQueue {
 public:
  /// `strategy` must outlive the queue (it is shared across the run).
  /// `processing_delay` is the PD every enqueued copy is scored with.
  OutputQueue(BrokerId neighbor, EdgeId edge, LinkParams believed_link,
              const Strategy* strategy, TimeMs processing_delay)
      : neighbor_(neighbor),
        edge_(edge),
        believed_link_(believed_link),
        strategy_(strategy),
        processing_delay_(processing_delay),
        state_(strategy->make_state()) {}

  BrokerId neighbor() const { return neighbor_; }
  EdgeId edge() const { return edge_; }
  /// Rate-estimate update (§3.2 measurement loop).  Affects only the FT the
  /// caller derives into future contexts; scheduler-state score bounds are
  /// FT-independent, so no invalidation is needed.
  void set_believed_link(LinkParams params) { believed_link_ = params; }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }
  const std::vector<QueuedMessage>& messages() const { return queue_; }

  bool link_busy() const { return link_busy_; }
  void set_link_busy(bool busy) { link_busy_ = busy; }

  /// Appends `queued`, folding its kernel rows with this queue's PD
  /// (whatever rows it carried are rebuilt).
  void enqueue(QueuedMessage queued);

  /// Drops every queued message (link failure); returns how many.
  std::size_t clear() {
    const std::size_t dropped = queue_.size();
    queue_.clear();
    keep_until_.clear();
    earliest_keep_until_ = kNever;
    // Cheaper to re-mint empty than to unwind row by row.
    state_ = strategy_->make_state();
    return dropped;
  }

  /// FT of eq. (6): estimated head-of-line transmission time given the
  /// running average message size.
  TimeMs head_of_line_estimate(double average_message_size_kb) const {
    return average_message_size_kb * believed_link_.mean_ms_per_kb;
  }

  /// Purges invalid messages (eq. 11), then removes and returns the
  /// scheduler state's choice; nullopt when the purge emptied the queue.
  /// The caller is responsible for the busy flag (it knows when the send
  /// ends).  `purged_ids` (optional) receives the ids of purged messages.
  std::optional<QueuedMessage> take_next(
      const SchedulingContext& context, const PurgePolicy& policy,
      PurgeStats* purge_stats, std::vector<MessageId>* purged_ids = nullptr);

  /// Throws std::logic_error unless every row carries one kernel row per
  /// target, the keep horizons mirror the queue, every horizon is at or
  /// before its row's exact last keep instant (classify_purge keeps the row
  /// just before it, under the policy the horizons were computed with), the
  /// scheduler state's own checks hold at `context` and its pick equals
  /// Strategy::reference_pick.
  /// Runs a pick, which only refreshes score bounds: decisions are
  /// unchanged.
  void check_invariants(const SchedulingContext& context);

 private:
  static constexpr TimeMs kNever = std::numeric_limits<double>::infinity();

  /// Removes row `index` from the queue and its horizon from the mirror.
  QueuedMessage remove_at(std::size_t index);

  BrokerId neighbor_;
  EdgeId edge_;
  LinkParams believed_link_;
  const Strategy* strategy_;
  TimeMs processing_delay_;
  std::vector<QueuedMessage> queue_;
  /// keep_until_[i]: row i's keep horizon under horizon_policy_.
  std::vector<TimeMs> keep_until_;
  /// At or below every row's horizon: take_next skips the purge scan
  /// before it.
  TimeMs earliest_keep_until_ = kNever;
  /// The policy of the horizons: the last take_next's (the default one
  /// before the first).
  PurgePolicy horizon_policy_;
  double horizon_z_ = keep_horizon_z(horizon_policy_);
  std::unique_ptr<SchedulerState> state_;
  bool link_busy_ = false;
};

}  // namespace bdps
