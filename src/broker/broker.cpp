#include "broker/broker.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace bdps {

Broker::Broker(BrokerId id, const RoutingFabric* fabric,
               const Graph* believed_links, const Strategy* strategy,
               TimeMs processing_delay, bool queues_for_all_links)
    : id_(id), fabric_(fabric) {
  // One queue per downstream neighbour appearing in the subscription table,
  // in ascending neighbour order (slot == rank).
  std::vector<LinkRef> links;
  for (const SubscriptionEntry& entry : fabric->table(id).entries()) {
    if (entry.is_local()) continue;
    // The table's edge id names the link in the fabric's graph; the queue
    // needs it in `believed_links`, which may be a (same-shaped) copy — fall
    // back to a lookup when the ids don't line up.
    EdgeId edge = entry.next_hop_edge;
    if (edge < 0 || static_cast<std::size_t>(edge) >=
                        believed_links->edge_count() ||
        believed_links->edge(edge).from != id ||
        believed_links->edge(edge).to != entry.next_hop) {
      edge = believed_links->edge_id(id, entry.next_hop);
    }
    if (edge == kNoEdge) {
      throw std::invalid_argument(
          "subscription table references a neighbour without a link");
    }
    links.push_back(LinkRef{entry.next_hop, edge});
  }
  if (queues_for_all_links) {
    // Routing repair can later re-point entries at any believed neighbour;
    // bind the full out-link set so every future next hop has a slot.
    for (const EdgeId e : believed_links->out_edges(id)) {
      links.push_back(LinkRef{believed_links->edge(e).to, e});
    }
  }
  std::sort(links.begin(), links.end(),
            [](const LinkRef& a, const LinkRef& b) {
              return a.neighbor != b.neighbor ? a.neighbor < b.neighbor
                                              : a.edge < b.edge;
            });
  links.erase(std::unique(links.begin(), links.end(),
                          [](const LinkRef& a, const LinkRef& b) {
                            return a.neighbor == b.neighbor;
                          }),
              links.end());

  queues_.reserve(links.size());
  neighbors_.reserve(links.size());
  for (const LinkRef& link : links) {
    queues_.emplace_back(link.neighbor, link.edge,
                         believed_links->edge(link.edge).link.params(),
                         strategy, processing_delay);
    neighbors_.push_back(link.neighbor);
  }
  slot_targets_.resize(links.size());
  row_entry_.reserve(fabric->table(id).size());
  row_slot_.reserve(fabric->table(id).size());
  cache_rows();
}

void Broker::cache_rows() {
  const std::deque<SubscriptionEntry>& rows = fabric_->table(id_).entries();
  for (std::size_t r = row_entry_.size(); r < rows.size(); ++r) {
    const SubscriptionEntry& entry = rows[r];
    QueueSlot slot = kNoSlot;
    if (!entry.is_local()) {
      slot = slot_of(entry.next_hop);
      if (slot == kNoSlot) {
        throw std::logic_error(
            "subscription table row toward a neighbour without a queue "
            "(routing repair needs queues_for_all_links)");
      }
    }
    row_entry_.push_back(&entry);
    row_slot_.push_back(slot);
  }
}

const Broker::FanOut& Broker::process(
    const std::shared_ptr<const Message>& message, TimeMs now) {
  return process(message, now, scratch_);
}

const Broker::FanOut& Broker::process(
    const std::shared_ptr<const Message>& message, TimeMs now,
    SubscriptionIndex::Scratch& scratch) {
  return fan_out(message, now,
                 fabric_->match_for(id_, *message, message->publisher(),
                                    scratch));
}

const Broker::FanOut& Broker::fan_out(
    const std::shared_ptr<const Message>& message, TimeMs now,
    const std::vector<SubscriptionIndex::EntryId>& rows) {
  total_size_kb_ += message->size_kb();
  ++processed_count_;
  if (row_entry_.size() < fabric_->table(id_).size()) cache_rows();

  FanOut& result = fan_out_;
  result.local.clear();
  result.sendable.clear();
  result.enqueued.clear();
  // The match admitted only enabled rows serving this publisher; drop the
  // rows whose subscription was inactive at the publish instant and send
  // the rest to the local list or their next hop's slot.  Rows arrive
  // ascending, so every list keeps row order.
  const TimeMs published_at = message->publish_time();
  for (const SubscriptionIndex::EntryId row : rows) {
    const SubscriptionEntry* entry = row_entry_[row];
    assert(!entry->disabled && entry->serves_publisher(message->publisher()));
    if (!entry->subscription->active_at(published_at)) continue;
    const QueueSlot slot = row_slot_[row];
    if (slot == kNoSlot) {
      result.local.push_back(entry);
    } else {
      slot_targets_[slot].push_back(entry);
    }
  }

  // Each non-empty slot becomes one queued copy carrying exactly the rows
  // it still serves.
  for (QueueSlot slot = 0; slot < static_cast<QueueSlot>(queues_.size());
       ++slot) {
    std::vector<const SubscriptionEntry*>& targets = slot_targets_[slot];
    if (targets.empty()) continue;
    OutputQueue& out = queues_[slot];
    const bool was_startable = !out.link_busy();
    QueuedMessage queued{
        message, now,
        std::vector<const SubscriptionEntry*>(targets.begin(), targets.end())};
    targets.clear();
    out.enqueue(std::move(queued));
    result.enqueued.push_back(slot);
    if (was_startable) result.sendable.push_back(slot);
  }
  return result;
}

void Broker::take_next(std::span<const QueueSlot> slots, TimeMs now,
                       const PurgePolicy& policy, std::vector<Dispatch>& out,
                       bool collect_purged_ids) {
  out.resize(slots.size());
  // All queues in one batch share the same instant, so the context's only
  // broker-wide ingredient — the running average message size — is computed
  // once here instead of per slot (a divide per link-free instant adds up
  // when a storm frees many links at once).
  const double average_kb = average_message_size_kb();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Dispatch& dispatch = out[i];
    OutputQueue& queue = queues_[slots[i]];
    dispatch.slot = slots[i];
    dispatch.neighbor = queue.neighbor();
    dispatch.purge = PurgeStats{};
    dispatch.purged_ids.clear();
    const SchedulingContext ctx{now, queue.head_of_line_estimate(average_kb)};
    dispatch.chosen = queue.take_next(
        ctx, policy, &dispatch.purge,
        collect_purged_ids ? &dispatch.purged_ids : nullptr);
#ifndef NDEBUG
    queue.check_invariants(ctx);
#endif
  }
}

Broker::QueueSlot Broker::slot_of(BrokerId neighbor) const {
  const auto it =
      std::lower_bound(neighbors_.begin(), neighbors_.end(), neighbor);
  if (it == neighbors_.end() || *it != neighbor) return kNoSlot;
  return static_cast<QueueSlot>(it - neighbors_.begin());
}

double Broker::average_message_size_kb() const {
  if (processed_count_ == 0) return 0.0;
  return total_size_kb_ / static_cast<double>(processed_count_);
}

SchedulingContext Broker::context_at(QueueSlot slot, TimeMs now) const {
  return SchedulingContext{
      now, queues_[slot].head_of_line_estimate(average_message_size_kb())};
}

}  // namespace bdps
