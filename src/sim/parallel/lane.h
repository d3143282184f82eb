// Per-shard event lane of the parallel discrete-event engine.
//
// Each shard of ParallelSimulator owns one LaneQueue ordered by
// (time, insertion key) — the per-lane analogue of the global EventQueue's
// (time, sequence) order.  A LaneEvent additionally carries
//
//   * `id`   — a run-unique identity, used at window barriers to resolve
//     the event's *global* sequence number once its parent event has been
//     merged (children created mid-round cannot know their final sequence
//     yet; see parallel_simulator.h),
//   * `seq`  — the global sequence number the sequential engine would have
//     assigned at push time, or kUnresolvedSeq until the barrier merge
//     derives it,
//   * publish-precompute and deposited-arrival bookkeeping fields.
//
// Storage is two-level: one min-heap per broker plus an indexed min-heap
// over the brokers' head events.  Global (time, insertion key) order is
// preserved exactly — pop() always returns the lane-wide minimum — and the
// conservative-window computation gets what a single flat heap cannot
// offer: O(1) access to every *pending broker* and its next event time,
// which is what lets idle regions of the graph stop narrowing the safe
// horizon (see ParallelSimulator::compute_safe_horizons).
//
// The insertion-key order within one lane reproduces the sequential
// engine's (time, sequence) order restricted to this shard: events are
// inserted in ascending final-sequence order at barriers, and mid-round
// children are pushed in exactly the order the sequential engine would
// have pushed them.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "message/message.h"
#include "sim/event_queue.h"

namespace bdps {

/// Sequence number of an event whose parent has not been merged yet.
inline constexpr std::uint64_t kUnresolvedSeq = ~std::uint64_t{0};

struct LaneEvent {
  TimeMs time = 0.0;
  EventType type = EventType::kPublish;
  BrokerId broker = kNoBroker;
  BrokerId neighbor = kNoBroker;
  std::shared_ptr<const Message> message;
  /// Run-unique identity (shard-banded counter; 0 is reserved).
  std::uint64_t id = 0;
  /// Global sequence (the sequential engine's push order) once known.
  std::uint64_t seq = kUnresolvedSeq;
  /// kSendComplete on a cut edge: id of the arrival event that was shipped
  /// to the destination shard when the send started (0 = none, i.e. a
  /// fault batch cuts the link mid-flight).  The completion's barrier
  /// record claims this id as its first child, which is where the
  /// arrival's sequence number comes from.
  std::uint64_t deposited_child = 0;
  /// kPublish only: precomputed eq. (1)/(2) inputs (the global matching
  /// index is not thread-safe, so these are resolved before the rounds).
  std::uint32_t interested = 0;
  double potential = 0.0;
};

/// Two-level min-heap of LaneEvents: (time, insertion key) order globally,
/// per-broker heads exposed for the safe-horizon pass.
class LaneQueue {
 public:
  /// Sizes the per-broker tables; brokers outside the owning shard are
  /// never pushed.  Must be called (once) before the first push.
  void bind(std::size_t broker_count) {
    events_.resize(broker_count);
    heap_pos_.assign(broker_count, kNoPos);
  }

  void push(LaneEvent event) {
    const auto broker = static_cast<std::size_t>(event.broker);
    assert(broker < events_.size());
    auto& lane = events_[broker];
    lane.push_back(Item{std::move(event), next_key_++});
    ++size_;
    // Sift within the broker heap; re-key the broker in the index heap if
    // its head changed.
    std::size_t at = lane.size() - 1;
    while (at > 0) {
      const std::size_t parent = (at - 1) / 2;
      if (!item_later(lane[parent], lane[at])) break;
      std::swap(lane[parent], lane[at]);
      at = parent;
    }
    if (heap_pos_[broker] == kNoPos) {
      heap_pos_[broker] = heap_.size();
      heap_.push_back(static_cast<BrokerId>(broker));
      index_sift_up(heap_.size() - 1);
    } else if (at == 0) {
      index_sift_up(heap_pos_[broker]);
    }
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Lane-wide minimum by (time, insertion key); undefined when empty.
  const LaneEvent& top() const {
    return events_[static_cast<std::size_t>(heap_.front())].front().event;
  }

  LaneEvent pop() {
    const auto broker = static_cast<std::size_t>(heap_.front());
    auto& lane = events_[broker];
    LaneEvent result = std::move(lane.front().event);
    lane.front() = std::move(lane.back());
    lane.pop_back();
    --size_;
    if (!lane.empty()) {
      broker_sift_down(lane);
      index_sift_down(0);
    } else {
      // Remove the broker from the index heap.
      const std::size_t hole = 0;
      heap_pos_[broker] = kNoPos;
      const BrokerId moved = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) {
        heap_[hole] = moved;
        heap_pos_[static_cast<std::size_t>(moved)] = hole;
        index_sift_down(hole);
      }
    }
    return result;
  }

  /// Visits every broker that has at least one pending event, with that
  /// broker's earliest event — the active frontier the safe-horizon pass
  /// walks.  Order is unspecified (heap layout).
  template <typename Fn>
  void for_each_pending_broker(Fn&& fn) const {
    for (const BrokerId broker : heap_) {
      fn(broker, events_[static_cast<std::size_t>(broker)].front().event);
    }
  }

  /// Pruned frontier walk: visits pending brokers in heap order, skipping
  /// a broker's whole index-heap subtree when `fn` returns false for it —
  /// sound whenever the predicate is monotone in the head's time, since
  /// every descendant's head is no earlier.  The safe-horizon pass prunes
  /// on its running bound this way, touching only the active frontier.
  template <typename Fn>
  void visit_pending_brokers_pruned(Fn&& fn) const {
    if (heap_.empty()) return;
    scratch_.clear();
    scratch_.push_back(0);
    while (!scratch_.empty()) {
      const std::size_t slot = scratch_.back();
      scratch_.pop_back();
      const BrokerId broker = heap_[slot];
      if (!fn(broker, events_[static_cast<std::size_t>(broker)].front()
                          .event)) {
        continue;  // Subtree heads are all at least as late.
      }
      const std::size_t left = 2 * slot + 1;
      const std::size_t right = left + 1;
      if (left < heap_.size()) scratch_.push_back(left);
      if (right < heap_.size()) scratch_.push_back(right);
    }
  }

 private:
  struct Item {
    LaneEvent event;
    std::uint64_t key;
  };
  static constexpr std::size_t kNoPos = ~std::size_t{0};

  static bool item_later(const Item& a, const Item& b) {
    if (a.event.time != b.event.time) return a.event.time > b.event.time;
    return a.key > b.key;
  }

  void broker_sift_down(std::vector<Item>& lane) {
    const std::size_t n = lane.size();
    std::size_t at = 0;
    for (;;) {
      const std::size_t left = 2 * at + 1;
      const std::size_t right = left + 1;
      std::size_t smallest = at;
      if (left < n && item_later(lane[smallest], lane[left])) smallest = left;
      if (right < n && item_later(lane[smallest], lane[right])) {
        smallest = right;
      }
      if (smallest == at) return;
      std::swap(lane[at], lane[smallest]);
      at = smallest;
    }
  }

  const Item& head_of(std::size_t slot) const {
    return events_[static_cast<std::size_t>(heap_[slot])].front();
  }
  bool slot_later(std::size_t a, std::size_t b) const {
    return item_later(head_of(a), head_of(b));
  }

  void index_sift_up(std::size_t slot) {
    while (slot > 0) {
      const std::size_t parent = (slot - 1) / 2;
      if (!slot_later(parent, slot)) break;
      std::swap(heap_[slot], heap_[parent]);
      heap_pos_[static_cast<std::size_t>(heap_[slot])] = slot;
      heap_pos_[static_cast<std::size_t>(heap_[parent])] = parent;
      slot = parent;
    }
  }

  void index_sift_down(std::size_t slot) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t left = 2 * slot + 1;
      const std::size_t right = left + 1;
      std::size_t smallest = slot;
      if (left < n && slot_later(smallest, left)) smallest = left;
      if (right < n && slot_later(smallest, right)) smallest = right;
      if (smallest == slot) return;
      std::swap(heap_[slot], heap_[smallest]);
      heap_pos_[static_cast<std::size_t>(heap_[slot])] = slot;
      heap_pos_[static_cast<std::size_t>(heap_[smallest])] = smallest;
      slot = smallest;
    }
  }

  /// events_[broker] is that broker's min-heap of pending events.
  std::vector<std::vector<Item>> events_;
  /// Index min-heap over brokers with pending events, keyed by their head.
  std::vector<BrokerId> heap_;
  std::vector<std::size_t> heap_pos_;
  std::uint64_t next_key_ = 0;
  std::size_t size_ = 0;
  /// DFS stack reused by visit_pending_brokers_pruned.
  mutable std::vector<std::size_t> scratch_;
};

}  // namespace bdps
