// Per-neighbour output queue (§3.2, fig. 2).
//
// One instance exists per (broker, downstream neighbour) pair.  It owns the
// waiting messages, the link-busy flag (a send is in flight), the believed
// parameters of its link — from which the head-of-line estimate FT of
// eq. (6) is derived — and the per-queue SchedulerState minted from the
// run's shared Strategy.  Every queue mutation is forwarded to the state's
// lifecycle hooks, so picks are incremental instead of full rescans.  The
// simulators and the live reactor drive the same class through BrokerStep;
// one queue is driven by one thread at a time (the live runtime keeps each
// queue on its source broker's worker).
#pragma once

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
  OutputQueue(BrokerId neighbor, EdgeId edge, LinkParams believed_link,
              const Strategy* strategy)
      : neighbor_(neighbor),
        edge_(edge),
        believed_link_(believed_link),
        strategy_(strategy) {}

  /// Moving re-homes the message vector, so the bound SchedulerState is
  /// dropped and lazily re-minted (and replayed) at the new address.  Only
  /// container shuffling during broker construction moves queues; by then
  /// they are empty, so the replay is free.
  OutputQueue(OutputQueue&& other) noexcept
      : neighbor_(other.neighbor_),
        edge_(other.edge_),
        believed_link_(other.believed_link_),
        strategy_(other.strategy_),
        queue_(std::move(other.queue_)),
        link_busy_(other.link_busy_) {}
  OutputQueue& operator=(OutputQueue&&) = delete;
  OutputQueue(const OutputQueue&) = delete;
  OutputQueue& operator=(const OutputQueue&) = delete;

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

  void enqueue(QueuedMessage queued) {
    // Mint (and replay) the state before growing the queue, so the new row
    // is announced exactly once.
    SchedulerState& scheduler = state();
    queue_.push_back(std::move(queued));
    scheduler.on_enqueue(queue_.size() - 1);
  }

  /// Drops every queued message (link failure); returns how many.
  std::size_t clear() {
    const std::size_t dropped = queue_.size();
    queue_.clear();
    state_.reset();  // Cheaper to re-mint empty than to unwind row by row.
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

  /// The bound per-queue scheduler state (minted on first use).
  SchedulerState& state();

 private:
  BrokerId neighbor_;
  EdgeId edge_;
  LinkParams believed_link_;
  const Strategy* strategy_;
  std::vector<QueuedMessage> queue_;
  std::unique_ptr<SchedulerState> state_;
  bool link_busy_ = false;
};

}  // namespace bdps
