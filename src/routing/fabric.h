// Routing fabric: subscription propagation over the overlay.
//
// Builds, for every broker, the §4.2 subscription table.  A subscription
// hosted at edge broker H is installed at every broker on the chosen
// (min-mean-rate, §3.3) path from each publisher edge broker to H; the
// entry's next hop and remaining-path statistics come from the shortest-
// path tree toward H, so they are publisher-independent (see
// routing/spt.h on suffix consistency).
//
// The fabric also owns one counting index per broker table (message/index.h;
// index id == table row) and a global index used by the metrics to compute
// ts_i of eq. (1).  Tables hold tens to about a thousand rows and never
// churn — repair only appends — which is where the counting index beats the
// sharded MatchFabric on both match and build time (PERF.md, "Routing tables
// on the counting index").
//
// Beside each index sits one admit bitmap per publisher (plus one for ids
// outside the publisher range): bit r is set iff row r is enabled and its
// publisher_mask names that publisher.  The
// broker's match_for ANDs the index's hit words with it, so the rows that
// routing repair retired or that serve another publisher are never written
// out, and the survivors come back ascending without a sort (PERF.md,
// "Match straight into fan-out groups").  The bitmaps are built in one pass
// per broker at the end of construction and of every repair batch that
// touched the broker's table.
#pragma once

#include <map>
#include <vector>

#include "message/index.h"
#include "routing/spt.h"
#include "routing/subscription.h"
#include "topology/builders.h"

namespace bdps {

struct FabricOptions {
  /// Single-path routing (§3.3, the paper's choice) when false.  When true,
  /// every non-local table row gains a second entry toward the next-best
  /// neighbour (DCP-style multi-path): the same subscription is served over
  /// two links, and the simulator's duplicate suppression keeps the copies
  /// from multiplying.  Reproduces the traffic-vs-reliability trade-off the
  /// paper cites for preferring single-path.
  bool multipath = false;
  /// Keeps the believed graph, its reverse adjacency and a per-subscription
  /// row registry alive so apply_link_state can repair routing state
  /// incrementally as links fail and recover mid-run.  Incompatible with
  /// multipath (alternate rows are not repaired).
  bool repairable = false;
  /// Read by nothing: per-broker tables are counting indexes, which do
  /// not merge covered filters.  Kept while perfbench/cpp/sim_storm.cpp
  /// assigns it.
  bool covering = true;
};

class RoutingFabric {
 public:
  /// Builds tables for `topology` with the given subscriptions.  The fabric
  /// keeps its own copy of the subscriptions; entry pointers refer into it.
  ///
  /// Thread-safety: after construction the fabric is logically const and
  /// every broker index is finalized.  The scratch-less match_at overloads
  /// use the broker index's own scratch, so concurrent calls are safe only
  /// for *different* broker ids (the live runtime's broker-ownership
  /// layout); the scratch-taking overloads (and match_for) are safe for any
  /// broker from any number of threads, each caller its own scratch.
  /// match_all must not race with itself.
  RoutingFabric(const Topology& topology,
                std::vector<Subscription> subscriptions,
                FabricOptions options = {});

  RoutingFabric(const RoutingFabric&) = delete;
  RoutingFabric& operator=(const RoutingFabric&) = delete;

  std::size_t broker_count() const { return tables_.size(); }
  std::size_t subscription_count() const { return subscriptions_.size(); }

  const Subscription& subscription(std::size_t i) const {
    return subscriptions_[i];
  }

  const SubscriptionTable& table(BrokerId broker) const {
    return tables_[broker];
  }

  /// Table rows of `broker` whose filters match `message`, in ascending
  /// row order (the canonical match order every consumer reduces in).
  std::vector<const SubscriptionEntry*> match_at(BrokerId broker,
                                                 const Message& message) const;

  /// Allocation-free variant: clears and refills `out` (callers keep a
  /// scratch vector across messages, the broker hot loop's idiom).
  void match_at(BrokerId broker, const Message& message,
                std::vector<const SubscriptionEntry*>& out) const;

  /// Fully concurrent variant: a pure read of the finalized index for any
  /// broker set, as long as each caller owns `scratch`.
  void match_at(BrokerId broker, const Message& message,
                SubscriptionIndex::Scratch& scratch,
                std::vector<const SubscriptionEntry*>& out) const;

  /// The broker's hot path: row ids (table rows of `broker`) whose filters
  /// match `message`, that are not disabled and that serve `publisher` —
  /// match_at filtered through the publisher's admit bitmap — ascending.
  /// Activation windows are the caller's to apply.  Returns a reference to
  /// scratch.result; same thread-safety as the scratch match_at overload.
  /// Any id outside [0, publisher count) — a decoded frame's publisher is
  /// not validated — admits only the rows serving every publisher.
  const std::vector<SubscriptionIndex::EntryId>& match_for(
      BrokerId broker, const Message& message, PublisherId publisher,
      SubscriptionIndex::Scratch& scratch) const;

  /// Indices (into subscription(i)) of all subscriptions in the system
  /// matching `message`, ascending; defines ts_i in eq. (1) and the
  /// earning ceiling of eq. (2).  Returns a reference into a scratch
  /// buffer reused by the next match_all call — copy to keep (callers on
  /// the hot path iterate in place; see the thread-safety note above).
  const std::vector<std::size_t>& match_all(const Message& message) const;

  /// The shortest-path tree toward a subscriber's home broker (shared by
  /// all subscriptions at that broker); mainly for tests and diagnostics.
  const ShortestPathTree& tree_toward(BrokerId home) const;

  bool repairable() const { return options_.repairable; }

  /// The graph routing was computed over (repairable fabrics only; engines
  /// with a differently-id'd true graph translate edge ids through it).
  const Graph& graph() const { return graph_; }

  /// Incremental routing repair after a batch of link transitions
  /// (repairable fabrics only; ids are edges of graph(), both directions of
  /// an undirected link listed explicitly).  Every affected shortest-path
  /// subtree is recomputed in place (routing/spt.h: repair_tree_toward) and
  /// the subscriptions whose install set, masks or carrying brokers moved
  /// get their table rows rewritten: stale rows are disabled in place —
  /// copies already queued keep following them — and replacements appended,
  /// each paired with a fresh matching-index filter so row-id alignment
  /// holds; the touched indexes are finalized again, and their admit
  /// bitmaps rebuilt, before it returns.
  /// Single-threaded callers only (the engines invoke it between events /
  /// at window barriers); returns the number of rows rewritten.
  std::size_t apply_link_state(const std::vector<EdgeId>& edges_down,
                               const std::vector<EdgeId>& edges_up);

  /// Throws std::logic_error unless: every broker's table and index have
  /// the same size; every admit bit equals `!disabled && publisher_mask`
  /// bit for every publisher id in [0, 64); and, on repairable fabrics, no
  /// registered live row is disabled and every enabled non-local row's
  /// next hop is its subscription tree's next hop at that broker.
  void check_invariants() const;

 private:
  /// One re-pointed subscription: disable its current rows, install the
  /// desired set from the repaired tree, flagging every broker whose table
  /// it touched in `touched`.  No-op (returning 0) when nothing it depends
  /// on changed.
  std::size_t reinstall(std::size_t sub_index, const ShortestPathTree& tree,
                        const std::vector<std::uint8_t>& changed,
                        std::vector<std::uint8_t>& touched);

  /// Rebuilds `broker`'s admit bitmaps from its table in one pass.
  void build_admit(BrokerId broker);

  /// Admit bitmap class of a publisher id: ids outside the topology's
  /// publisher range share the last class, the rows serving every
  /// publisher (the local ones).  check_invariants pins that this equals
  /// publisher_mask's answer for every id from the publisher count to 63.
  std::size_t admit_class(PublisherId publisher) const;

  /// Appends `entry` to `broker`'s table and its filters to the broker's
  /// index, so the index id equals the table row (row-id alignment).
  void install_row(BrokerId broker, const SubscriptionEntry& entry);

  /// One broker's admit bitmaps: `classes` bitmaps of `words` words each,
  /// class-major (class c's word w at bits[c * words + w]).
  struct AdmitBitmaps {
    std::size_t words = 0;
    std::vector<std::uint64_t> bits;
  };

  FabricOptions options_;
  std::vector<Subscription> subscriptions_;
  std::vector<SubscriptionTable> tables_;
  std::vector<SubscriptionIndex> broker_indexes_;
  std::vector<AdmitBitmaps> admit_;
  /// Publisher count + 1 (see admit_class).
  std::size_t admit_classes_ = 1;
  SubscriptionIndex global_index_;
  std::map<BrokerId, ShortestPathTree> trees_;

  // ---- Repairable-fabric state (unused unless options_.repairable) ----
  /// Position of one live table row of a subscription: tables_[broker]'s
  /// row index (== the broker matching index's filter id).
  struct RowRef {
    BrokerId broker;
    std::uint32_t row;
  };
  Graph graph_;
  std::vector<BrokerId> publisher_edges_;
  EdgeFlags link_down_;
  std::vector<std::vector<EdgeId>> incoming_;
  std::vector<std::vector<RowRef>> rows_by_sub_;
  std::map<BrokerId, std::vector<std::size_t>> subs_by_home_;
};

}  // namespace bdps
