// Message broker node (fig. 2 of the paper).
//
// A Broker owns its output queues (one per downstream neighbour present in
// its subscription table) and implements the message-processing step:
// select the subscription-table rows the message matches, deliver locally,
// and fan one copy out per downstream neighbour that still has interested
// subscribers for this message's publisher.  The broker does not match the
// message itself: it arrives stamped with its one overlay-wide match
// (message/message.h), and RoutingFabric::match_for walks the publisher's
// admit bitmap — rows that routing repair has not disabled and that serve
// the publisher — keeping each row whose subscription the stamp names, in
// ascending row order.  The fan-out applies the one remaining filter, the
// subscription's activation window at the publish instant, and sends each
// surviving row to the local list or to its next hop's slot, read from
// row-aligned caches of entry pointers and slots.  Timing (processing
// delay, send durations, link events) is driven from outside: BrokerStep
// (sim/broker_step.h) runs it for both simulators and the live reactor.
//
// Queue storage is a flat slot vector in ascending neighbour order; the
// QueueSlot index is the broker-local link address every caller works in
// (FanOut, Dispatch, take_next).  Each queue also names its EdgeId for
// global flat per-edge state.  There is no BrokerId-keyed access: resolve a
// neighbour once with `slot_of` and stay in slot space.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "broker/output_queue.h"
#include "routing/fabric.h"

namespace bdps {

class Broker {
 public:
  /// Index of an output queue within this broker's slot vector; dense in
  /// [0, queue_count()), ascending neighbour order.
  using QueueSlot = std::int32_t;
  static constexpr QueueSlot kNoSlot = -1;

  /// `believed_links` provides the link parameters this broker uses for its
  /// scheduling math (FT); they may deviate from the true simulation links
  /// in the estimation ablation.  `strategy` is the run's shared scheduling
  /// policy; each queue mints its own SchedulerState from it.
  /// `processing_delay` (PD) is the constant of every queue: each enqueued
  /// copy's scoring kernel is folded with it once.  `queues_for_all_links`
  /// binds a queue slot for every believed out-link instead of only the
  /// neighbours present in the initial subscription table — required when
  /// routing repair can re-point entries at neighbours that carried no
  /// subscription at construction time (fan-out asserts the target slot
  /// exists).
  Broker(BrokerId id, const RoutingFabric* fabric, const Graph* believed_links,
         const Strategy* strategy, TimeMs processing_delay = 0.0,
         bool queues_for_all_links = false);

  BrokerId id() const { return id_; }

  /// Result of processing one message at this broker.  The broker owns
  /// one and refills it on every process() call, so its buffers are reused.
  struct FanOut {
    /// Local subscription rows matched by the message.
    std::vector<const SubscriptionEntry*> local;
    /// Slots whose queue received a copy *and* whose link is idle — the
    /// caller should start a send on each.
    std::vector<QueueSlot> sendable;
    /// Every slot that received a copy (sendable or not); trace support.
    std::vector<QueueSlot> enqueued;
  };

  /// Selects the subscription-table rows `message` matches and enqueues
  /// copies toward each relevant downstream neighbour (rows are filtered
  /// to the message's publisher and its activation window).  Also folds
  /// the message size into the broker's running average (the basis of
  /// eq. 6's FT).  A message without the fabric's stamp is matched on the
  /// spot, through a scratch this broker owns.  The result stays valid
  /// until the next process() call on this broker.
  const FanOut& process(const std::shared_ptr<const Message>& message,
                        TimeMs now);
  /// Same, through the caller's scratch: one per thread serves every
  /// broker (RoutingFabric::match_for).  Either way a broker has a single
  /// owner at a time — its queues and row caches are unguarded.  Warmed
  /// up, a call allocates only each queued copy's target and kernel rows.
  const FanOut& process(const std::shared_ptr<const Message>& message,
                        TimeMs now, SubscriptionIndex::Scratch& scratch);

  /// One per-queue purge + pick outcome of take_next.
  struct Dispatch {
    QueueSlot slot = kNoSlot;
    /// The slot's downstream neighbour (= queue_at(slot).neighbor());
    /// carried so trace/accounting consumers need no lookup.
    BrokerId neighbor = kNoBroker;
    std::optional<QueuedMessage> chosen;
    PurgeStats purge;
    /// Ids of purged messages; filled only when requested.
    std::vector<MessageId> purged_ids;
  };

  /// Purges then picks on each named queue slot at instant `now`, writing
  /// results into `out` in `slots` order (resized to match; inner buffers
  /// are reused across calls).  The caller remains responsible for busy
  /// flags and anything involving RNG streams or event queues.
  void take_next(std::span<const QueueSlot> slots, TimeMs now,
                 const PurgePolicy& policy, std::vector<Dispatch>& out,
                 bool collect_purged_ids = false);

  std::size_t queue_count() const { return queues_.size(); }

  /// Output queues in ascending neighbour order; position == QueueSlot.
  const std::vector<OutputQueue>& queues() const { return queues_; }

  OutputQueue& queue_at(QueueSlot slot) { return queues_[slot]; }
  const OutputQueue& queue_at(QueueSlot slot) const { return queues_[slot]; }

  /// Slot of the queue toward `neighbor`; kNoSlot when absent (binary
  /// search over the sorted neighbour keys).
  QueueSlot slot_of(BrokerId neighbor) const;

  /// Running average size of the messages this broker has processed; the
  /// paper's FT estimates head-of-line transmission time from it.
  double average_message_size_kb() const;

  /// Builds the SchedulingContext for a pick/purge on a slot's queue.
  SchedulingContext context_at(QueueSlot slot, TimeMs now) const;

 private:
  BrokerId id_;
  const RoutingFabric* fabric_;
  /// Flat queue storage; slot i's neighbour is mirrored in neighbors_[i]
  /// (the contiguous binary-search key array behind slot_of).
  std::vector<OutputQueue> queues_;
  std::vector<BrokerId> neighbors_;
  double total_size_kb_ = 0.0;
  std::size_t processed_count_ = 0;
  /// Groups the admitted table rows `rows` into the queues (process()'s
  /// tail), refilling fan_out_.
  const FanOut& fan_out(const std::shared_ptr<const Message>& message,
                        TimeMs now,
                        const std::vector<SubscriptionIndex::EntryId>& rows);
  /// Extends the row caches over table rows appended since (routing repair
  /// grows tables); throws std::logic_error on a non-local row toward a
  /// neighbour without a queue.
  void cache_rows();

  // Row caches aligned with the table: each row's entry and its queue slot
  // (kNoSlot for a local row), resolved once per row.
  std::vector<const SubscriptionEntry*> row_entry_;
  std::vector<QueueSlot> row_slot_;
  // Buffers reused across process() calls: the scratch-less overload's
  // match state (for unstamped messages), the result, and per slot
  // (aligned with queues_) the rows of the copy being built, copied into
  // the queued copy at their exact size.
  SubscriptionIndex::Scratch scratch_;
  FanOut fan_out_;
  std::vector<std::vector<const SubscriptionEntry*>> slot_targets_;
};

}  // namespace bdps
