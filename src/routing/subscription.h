// Subscriptions and per-broker subscription tables.
//
// §4.2: each broker keeps, for every subscription it can reach, the filter,
// the allowed delay `dl`, the price `pr`, the downstream neighbour `nb` and
// the remaining-path statistics (NN_p, mu_p, sigma_p^2).  In the PSD
// scenario the delay bound instead travels with the message, so entries
// expose an *effective* deadline/price given a message (§5, first
// paragraph: PSD reuses the SSD machinery with price = 1).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.h"
#include "message/filter.h"
#include "routing/path_stats.h"

namespace bdps {

struct Subscription {
  SubscriberId subscriber = 0;
  Filter filter;
  /// Additional disjuncts: the subscription is interested in messages
  /// matching `filter` OR any entry here (OR-queries; each disjunct is a
  /// conjunctive Filter, i.e. the query is in disjunctive normal form).
  std::vector<Filter> or_filters;
  /// Allowed delay `dl` (SSD).  kNoDeadline in the PSD scenario, where the
  /// publisher stamps the deadline on each message instead.
  TimeMs allowed_delay = kNoDeadline;
  /// Price `pr` the subscriber pays per valid message (SSD); 1 under PSD.
  double price = 1.0;
  /// Edge broker the subscriber is attached to.
  BrokerId home = kNoBroker;

  /// Activation window (subscription churn): the subscription is only
  /// interested in messages *published* while it is active.  Table entries
  /// stay installed for the whole run — soft state, as real brokers keep
  /// routing state across short-lived re-subscriptions — but inactive
  /// windows suppress matching, forwarding and accounting.  The default
  /// window is unbounded on both sides.
  TimeMs active_from = -kNoDeadline;
  TimeMs active_to = kNoDeadline;

  bool active_at(TimeMs publish_time) const {
    return publish_time >= active_from && publish_time < active_to;
  }

  /// Full interest check across all disjuncts (content only; callers also
  /// consult active_at for churn-aware matching).
  bool matches(const Message& message) const {
    if (filter.matches(message)) return true;
    for (const Filter& f : or_filters) {
      if (f.matches(message)) return true;
    }
    return false;
  }
};

/// One row of a broker's subscription table.
struct SubscriptionEntry {
  const Subscription* subscription = nullptr;
  /// Downstream neighbour toward the subscriber; kNoBroker when the
  /// subscriber is attached to this very broker (local delivery).
  BrokerId next_hop = kNoBroker;
  /// Id of the directed link owning-broker -> next_hop in the fabric's
  /// graph (kNoEdge for local rows).  Surfaced so per-link consumers —
  /// output queues, live sender workers, flat per-edge state — index by
  /// EdgeId without ever re-resolving the link.
  EdgeId next_hop_edge = kNoEdge;
  /// Remaining path statistics from this broker to the subscriber.
  PathStats path;
  /// Publishers whose chosen path to this subscriber passes through the
  /// owning broker (bit i = publisher i).  A message only follows entries
  /// of its own publisher: single-path routing (§3.3) means broker B
  /// forwards m toward s only when B lies on the selected
  /// publisher(m) -> s path; without this guard a broker sitting on the
  /// union of several publishers' paths would branch copies onto paths the
  /// routing protocol never selected, duplicating deliveries.
  std::uint64_t publisher_mask = ~0ULL;
  /// Routing repair (RoutingFabric::apply_link_state) retires stale rows in
  /// place instead of erasing them: erasure would renumber rows and break
  /// the row-id alignment with the broker's matching index, and copies
  /// already queued keep pointing at their original entry.  Disabled rows
  /// leave their broker's admit bitmaps (RoutingFabric::match_for), so they
  /// stop attracting new copies the instant the repair lands.
  bool disabled = false;

  bool is_local() const { return next_hop == kNoBroker; }

  bool serves_publisher(PublisherId publisher) const {
    return (publisher_mask >> static_cast<unsigned>(publisher)) & 1ULL;
  }

  /// adl(s_i) for a given message: the subscriber's own bound under SSD or
  /// the message's publisher-specified bound under PSD.  When both exist
  /// the tighter one governs (the paper's "both" extension, §4.1).
  TimeMs effective_deadline(const Message& message) const {
    const TimeMs subscriber_bound = subscription->allowed_delay;
    const TimeMs publisher_bound = message.allowed_delay();
    return subscriber_bound < publisher_bound ? subscriber_bound
                                              : publisher_bound;
  }
};

/// All table rows of one broker, plus grouping by downstream neighbour
/// (the unit the output-queue scheduler works on).
///
/// Storage is a deque, not a vector: queued copies hold raw pointers into
/// the table, and routing repair appends replacement rows mid-run — deque
/// growth never moves existing elements, so those pointers stay valid.
class SubscriptionTable {
 public:
  void add(SubscriptionEntry entry) { entries_.push_back(entry); }

  const std::deque<SubscriptionEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Mutable row access for routing repair (disabling stale rows in place).
  SubscriptionEntry& entry_at(std::size_t row) { return entries_[row]; }

  std::string to_string() const;

 private:
  std::deque<SubscriptionEntry> entries_;
};

}  // namespace bdps
