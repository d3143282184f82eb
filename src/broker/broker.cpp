#include "broker/broker.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace bdps {

Broker::Broker(BrokerId id, const RoutingFabric* fabric,
               const Graph* believed_links, const Strategy* strategy,
               TimeMs processing_delay, bool queues_for_all_links)
    : id_(id), fabric_(fabric), processing_delay_(processing_delay) {
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
                         strategy);
    neighbors_.push_back(link.neighbor);
  }
  // One reusable grouping slot per link; grouper slot i == queue slot i.
  grouper_.bind(std::move(links));
}

Broker::FanOut Broker::process(const std::shared_ptr<const Message>& message,
                               TimeMs now) {
  fabric_->match_at(id_, *message, match_scratch_);
  return fan_out(message, now);
}

Broker::FanOut Broker::process(const std::shared_ptr<const Message>& message,
                               TimeMs now,
                               SubscriptionIndex::Scratch& scratch) {
  fabric_->match_at(id_, *message, scratch, match_scratch_);
  return fan_out(message, now);
}

Broker::FanOut Broker::fan_out(const std::shared_ptr<const Message>& message,
                               TimeMs now) {
  total_size_kb_ += message->size_kb();
  ++processed_count_;

  FanOut result;
  // Group the matched rows by downstream neighbour; each group becomes one
  // queued copy carrying exactly the subscriptions it still serves.  Group
  // slots and queue slots share the same order, so the grouping *is* the
  // queue addressing.
  grouper_.group(match_scratch_, *message);
  result.local = grouper_.local();

  std::vector<FanOutGroup>& groups = grouper_.groups();
  for (QueueSlot slot = 0; slot < static_cast<QueueSlot>(groups.size());
       ++slot) {
    FanOutGroup& group = groups[slot];
    if (group.targets.empty()) continue;
    OutputQueue& out = queues_[slot];
    const bool was_startable = !out.link_busy();
    QueuedMessage queued{message, now, std::move(group.targets)};
    group.targets = {};  // Moved-from: reset to a clean empty slot.
    // Fold the time-invariant scoring constants now, while the rows are
    // cache-hot, so picks and purges never touch the subscription table.
    precompute_scores(queued, processing_delay_);
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
    const SchedulingContext ctx{now, processing_delay_,
                                queue.head_of_line_estimate(average_kb)};
    dispatch.chosen = queue.take_next(
        ctx, policy, &dispatch.purge,
        collect_purged_ids ? &dispatch.purged_ids : nullptr);
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

SchedulingContext Broker::context_at(QueueSlot slot, TimeMs now,
                                     TimeMs processing_delay) const {
  const OutputQueue& out = queues_[slot];
  return SchedulingContext{
      now, processing_delay,
      out.head_of_line_estimate(average_message_size_kb())};
}

}  // namespace bdps
