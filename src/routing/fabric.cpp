#include "routing/fabric.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <set>
#include <stdexcept>
#include <string>

namespace bdps {

namespace {

/// Source of fabric ids; 0 stays the unstamped owner.
std::atomic<std::uint64_t> next_fabric_id{1};

bool bit_set(const std::uint64_t* bits, std::size_t i) {
  return (bits[i / 64] >> (i % 64)) & 1ULL;
}

/// Second-best forwarding choice at `broker` toward the tree's destination:
/// the out-neighbour v != primary minimising link(broker->v) + dist(v),
/// skipping neighbours that would immediately bounce the copy back.
/// Returns kNoBroker when no alternative exists.
BrokerId second_best_next_hop(const Graph& graph, const ShortestPathTree& tree,
                              BrokerId broker, BrokerId primary,
                              PathStats* stats_out) {
  BrokerId best = kNoBroker;
  double best_mean = 0.0;
  PathStats best_stats;
  for (const EdgeId e : graph.out_edges(broker)) {
    const Edge& edge = graph.edge(e);
    const BrokerId v = edge.to;
    if (v == primary || !tree.reachable[v]) continue;
    if (tree.next_hop[v] == broker) continue;  // Immediate bounce-back.
    const PathStats candidate = tree.stats[v].then_link(edge.link.params());
    if (best == kNoBroker || candidate.mean_ms_per_kb < best_mean) {
      best = v;
      best_mean = candidate.mean_ms_per_kb;
      best_stats = candidate;
    }
  }
  if (best != kNoBroker && stats_out != nullptr) *stats_out = best_stats;
  return best;
}

}  // namespace

RoutingFabric::RoutingFabric(const Topology& topology,
                             std::vector<Subscription> subscriptions,
                             FabricOptions options)
    : id_(next_fabric_id.fetch_add(1, std::memory_order_relaxed)),
      options_(options),
      subscriptions_(std::move(subscriptions)) {
  if (options_.repairable && options_.multipath) {
    throw std::invalid_argument(
        "repairable fabric does not support multipath (alternate rows are "
        "not repaired)");
  }
  const std::size_t n = topology.graph.broker_count();
  tables_.resize(n);
  row_sub_.resize(n);
  admit_.resize(n);
  admit_classes_ = topology.publisher_edges.size() + 1;
  if (options_.repairable) {
    graph_ = topology.graph;
    publisher_edges_ = topology.publisher_edges;
    link_down_.assign(graph_.edge_count());
    incoming_.resize(n);
    for (std::size_t b = 0; b < n; ++b) {
      for (const EdgeId e : graph_.out_edges(static_cast<BrokerId>(b))) {
        incoming_[graph_.edge(e).to].push_back(e);
      }
    }
    rows_by_sub_.resize(subscriptions_.size());
    for (std::size_t i = 0; i < subscriptions_.size(); ++i) {
      subs_by_home_[subscriptions_[i].home].push_back(i);
    }
  }

  // One shortest-path tree per distinct subscriber home broker.
  for (const Subscription& sub : subscriptions_) {
    if (sub.home < 0 || static_cast<std::size_t>(sub.home) >= n) {
      throw std::invalid_argument("subscription home outside the graph");
    }
    if (!trees_.count(sub.home)) {
      trees_.emplace(sub.home, compute_tree_toward(topology.graph, sub.home));
    }
  }

  if (topology.publisher_edges.size() > 64) {
    throw std::invalid_argument(
        "RoutingFabric supports at most 64 publishers (publisher_mask)");
  }

  // Install each subscription on the union of chosen publisher->home paths,
  // remembering per broker *which* publishers route through it (the
  // publisher_mask guard; see SubscriptionEntry).
  for (std::size_t si = 0; si < subscriptions_.size(); ++si) {
    const Subscription& sub = subscriptions_[si];
    const ShortestPathTree& tree = trees_.at(sub.home);
    std::map<BrokerId, std::uint64_t> installed;  // broker -> publisher mask
    for (std::size_t p = 0; p < topology.publisher_edges.size(); ++p) {
      const BrokerId publisher_edge = topology.publisher_edges[p];
      if (!tree.reachable[publisher_edge]) continue;
      for (const BrokerId broker : tree.path_from(publisher_edge)) {
        installed[broker] |= 1ULL << p;
      }
    }
    // The home broker always carries a local-delivery row serving every
    // publisher (a message can only arrive there along an installed path).
    installed[sub.home] = ~0ULL;

    // Multi-path: brokers on a primary path additionally forward toward
    // their second-best neighbour — which means every broker on that
    // neighbour's own (primary) path to the home must carry entries too,
    // or redundant copies would die unrouted.  One level of redundancy:
    // alternate-path brokers get primary entries only.
    std::map<BrokerId, BrokerId> alt_hops;  // primary broker -> alt neighbour
    if (options.multipath) {
      std::map<BrokerId, std::uint64_t> extra;
      for (const auto& [broker, mask] : installed) {
        if (broker == sub.home) continue;
        const BrokerId alt = second_best_next_hop(
            topology.graph, tree, broker, tree.next_hop[broker], nullptr);
        if (alt == kNoBroker) continue;
        alt_hops[broker] = alt;
        for (const BrokerId w : tree.path_from(alt)) {
          extra[w] |= mask;
        }
      }
      for (const auto& [broker, mask] : extra) {
        installed[broker] |= mask;
      }
    }

    for (const auto& [broker, mask] : installed) {
      SubscriptionEntry entry;
      entry.subscription = &sub;
      entry.publisher_mask = mask;
      if (broker == sub.home) {
        entry.next_hop = kNoBroker;
        entry.path = kLocalPath;
      } else {
        entry.next_hop = tree.next_hop[broker];
        entry.next_hop_edge =
            topology.graph.edge_id(broker, entry.next_hop);
        entry.path = tree.stats[broker];
      }
      if (options_.repairable) {
        rows_by_sub_[si].push_back(RowRef{
            broker, static_cast<std::uint32_t>(tables_[broker].size())});
      }
      install_row(broker, entry);

      const auto alt_it = alt_hops.find(broker);
      if (alt_it != alt_hops.end()) {
        PathStats alt_stats;
        const BrokerId alt = second_best_next_hop(
            topology.graph, tree, broker, entry.next_hop, &alt_stats);
        if (alt == alt_it->second) {
          SubscriptionEntry alt_entry = entry;
          alt_entry.next_hop = alt;
          alt_entry.next_hop_edge = topology.graph.edge_id(broker, alt);
          alt_entry.path = alt_stats;
          install_row(broker, alt_entry);
        }
      }
    }
  }

  for (const Subscription& sub : subscriptions_) {
    const auto id = global_index_.add(sub.filter);
    for (const Filter& f : sub.or_filters) {
      global_index_.add_disjunct(id, f);
    }
  }
  global_index_.finalize();
  for (std::size_t b = 0; b < n; ++b) build_admit(static_cast<BrokerId>(b));
}

void RoutingFabric::build_admit(BrokerId broker) {
  const std::deque<SubscriptionEntry>& rows = tables_[broker].entries();
  AdmitBitmaps& admit = admit_[broker];
  admit.words = (rows.size() + 63) / 64;
  admit.bits.assign(admit_classes_ * admit.words, 0);
  // Publisher p's class is mask bit p; the last class holds the rows
  // serving every publisher.
  const std::size_t publishers = admit_classes_ - 1;
  const std::uint64_t publisher_bits =
      publishers == 64 ? ~0ULL : (1ULL << publishers) - 1;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].disabled) continue;
    const std::uint64_t bit = 1ULL << (r % 64);
    std::uint64_t* const word = admit.bits.data() + r / 64;
    const std::uint64_t mask = rows[r].publisher_mask;
    for (std::uint64_t m = mask & publisher_bits; m != 0; m &= m - 1) {
      word[static_cast<std::size_t>(std::countr_zero(m)) * admit.words] |=
          bit;
    }
    if (mask == ~0ULL) word[publishers * admit.words] |= bit;
  }
}

std::size_t RoutingFabric::admit_class(PublisherId publisher) const {
  // A negative id converts to a huge one and lands in the last class too.
  return std::min(static_cast<std::size_t>(publisher), admit_classes_ - 1);
}

void RoutingFabric::install_row(BrokerId broker,
                                const SubscriptionEntry& entry) {
  tables_[broker].add(entry);
  row_sub_[broker].push_back(
      static_cast<std::uint32_t>(entry.subscription - subscriptions_.data()));
}

void RoutingFabric::stamp(const Message& message,
                          SubscriptionIndex::Scratch& scratch) const {
  MatchStamp& stamp = message.stamp_slot();
  if (stamp.owner == id_) return;
  global_index_.match_bits(message, scratch, stamp.bits);
  stamp.owner = id_;
}

const std::vector<std::uint64_t>& RoutingFabric::matched(
    const Message& message, SubscriptionIndex::Scratch& scratch) const {
  if (message.stamp().owner == id_) return message.stamp().bits;
  global_index_.match_bits(message, scratch, scratch.bits);
  return scratch.bits;
}

std::vector<const SubscriptionEntry*> RoutingFabric::match_at(
    BrokerId broker, const Message& message) const {
  std::vector<const SubscriptionEntry*> matched;
  match_at(broker, message, matched);
  return matched;
}

void RoutingFabric::match_at(
    BrokerId broker, const Message& message,
    std::vector<const SubscriptionEntry*>& out) const {
  thread_local SubscriptionIndex::Scratch scratch;
  match_at(broker, message, scratch, out);
}

void RoutingFabric::match_at(
    BrokerId broker, const Message& message,
    SubscriptionIndex::Scratch& scratch,
    std::vector<const SubscriptionEntry*>& out) const {
  out.clear();
  const std::uint64_t* const hit = matched(message, scratch).data();
  const std::deque<SubscriptionEntry>& rows = tables_[broker].entries();
  const std::vector<std::uint32_t>& sub_of = row_sub_[broker];
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (bit_set(hit, sub_of[r])) out.push_back(&rows[r]);
  }
}

const std::vector<SubscriptionIndex::EntryId>& RoutingFabric::match_for(
    BrokerId broker, const Message& message, PublisherId publisher,
    SubscriptionIndex::Scratch& scratch) const {
  const std::uint64_t* const hit = matched(message, scratch).data();
  const AdmitBitmaps& admit = admit_[broker];
  const std::uint64_t* const words =
      admit.bits.data() + admit_class(publisher) * admit.words;
  const std::uint32_t* const sub_of = row_sub_[broker].data();
  // Admitted rows in row order, each kept when its subscription matched.
  std::vector<SubscriptionIndex::EntryId>& rows = scratch.result;
  rows.clear();
  for (std::size_t w = 0; w < admit.words; ++w) {
    for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
      const std::size_t row =
          w * 64 + static_cast<std::size_t>(std::countr_zero(word));
      if (bit_set(hit, sub_of[row])) rows.push_back(row);
    }
  }
  return rows;
}

const std::vector<std::size_t>& RoutingFabric::match_all(
    const Message& message) const {
  return global_index_.match(message);
}

const std::vector<std::size_t>& RoutingFabric::match_all(
    const Message& message, SubscriptionIndex::Scratch& scratch) const {
  return global_index_.match(message, scratch);
}

const ShortestPathTree& RoutingFabric::tree_toward(BrokerId home) const {
  return trees_.at(home);
}

std::size_t RoutingFabric::apply_link_state(
    const std::vector<EdgeId>& edges_down,
    const std::vector<EdgeId>& edges_up) {
  if (!options_.repairable) {
    throw std::logic_error(
        "apply_link_state requires FabricOptions::repairable");
  }
  for (const EdgeId e : edges_down) link_down_.set(e);
  for (const EdgeId e : edges_up) link_down_.reset(e);

  std::size_t rewritten = 0;
  std::vector<std::uint8_t> changed_flags(tables_.size(), 0);
  std::vector<std::uint8_t> touched(tables_.size(), 0);
  for (auto& [home, tree] : trees_) {
    const std::vector<BrokerId> changed = repair_tree_toward(
        graph_, incoming_, link_down_, edges_down, edges_up, tree);
    if (changed.empty()) continue;
    std::fill(changed_flags.begin(), changed_flags.end(), 0);
    for (const BrokerId b : changed) changed_flags[b] = 1;
    for (const std::size_t si : subs_by_home_.at(home)) {
      rewritten += reinstall(si, tree, changed_flags, touched);
    }
  }
  for (std::size_t b = 0; b < tables_.size(); ++b) {
    if (touched[b] != 0) build_admit(static_cast<BrokerId>(b));
  }
  return rewritten;
}

void RoutingFabric::check_invariants() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("RoutingFabric: " + what);
  };
  for (std::size_t b = 0; b < tables_.size(); ++b) {
    const std::deque<SubscriptionEntry>& rows = tables_[b].entries();
    const std::string at = " at broker " + std::to_string(b);
    const std::vector<std::uint32_t>& sub_of = row_sub_[b];
    if (sub_of.size() != rows.size()) {
      fail("row -> subscription array does not cover the table" + at);
    }
    const AdmitBitmaps& admit = admit_[b];
    if (admit.words != (rows.size() + 63) / 64 ||
        admit.bits.size() != admit_classes_ * admit.words) {
      fail("admit bitmaps do not cover the table" + at);
    }
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const SubscriptionEntry& entry = rows[r];
      if (sub_of[r] >= subscriptions_.size() ||
          &subscriptions_[sub_of[r]] != entry.subscription) {
        fail("row " + std::to_string(r) +
             " caches another subscription than its entry's" + at);
      }
      for (PublisherId p = 0; p < 64; ++p) {
        const bool admitted =
            (admit.bits[admit_class(p) * admit.words + r / 64] >> (r % 64)) &
            1ULL;
        if (admitted != (!entry.disabled && entry.serves_publisher(p))) {
          fail("admit bit of row " + std::to_string(r) + ", publisher " +
               std::to_string(p) + " disagrees with the row" + at);
        }
      }
      if (options_.repairable && !entry.disabled && !entry.is_local() &&
          entry.next_hop !=
              trees_.at(entry.subscription->home).next_hop[b]) {
        fail("row " + std::to_string(r) + " is off its subscription tree" +
             at);
      }
    }
  }
  if (!options_.repairable) return;
  for (const std::vector<RowRef>& refs : rows_by_sub_) {
    for (const RowRef& ref : refs) {
      if (tables_[ref.broker].entries()[ref.row].disabled) {
        fail("a live row is disabled at broker " +
             std::to_string(ref.broker));
      }
    }
  }
}

std::size_t RoutingFabric::reinstall(
    std::size_t sub_index, const ShortestPathTree& tree,
    const std::vector<std::uint8_t>& changed,
    std::vector<std::uint8_t>& touched) {
  const Subscription& sub = subscriptions_[sub_index];
  // Desired install set from the repaired tree — the constructor's
  // publisher-path union (single-path; repairable excludes multipath).
  std::map<BrokerId, std::uint64_t> installed;
  for (std::size_t p = 0; p < publisher_edges_.size(); ++p) {
    const BrokerId publisher_edge = publisher_edges_[p];
    if (!tree.reachable[publisher_edge]) continue;
    for (const BrokerId broker : tree.path_from(publisher_edge)) {
      installed[broker] |= 1ULL << p;
    }
  }
  installed[sub.home] = ~0ULL;

  // Fast path: skip the rewrite when the install set, the masks and every
  // carrying broker's tree state are untouched by this repair.
  std::vector<RowRef>& rows = rows_by_sub_[sub_index];
  bool identical = rows.size() == installed.size();
  if (identical) {
    for (const RowRef& r : rows) {
      const auto it = installed.find(r.broker);
      if (it == installed.end() || changed[r.broker] != 0 ||
          tables_[r.broker].entry_at(r.row).publisher_mask != it->second) {
        identical = false;
        break;
      }
    }
  }
  if (identical) return 0;

  for (const RowRef& r : rows) {
    tables_[r.broker].entry_at(r.row).disabled = true;
    touched[r.broker] = 1;
  }
  rows.clear();
  for (const auto& [broker, mask] : installed) {
    SubscriptionEntry entry;
    entry.subscription = &sub;
    entry.publisher_mask = mask;
    if (broker == sub.home) {
      entry.next_hop = kNoBroker;
      entry.path = kLocalPath;
    } else {
      entry.next_hop = tree.next_hop[broker];
      entry.next_hop_edge = graph_.edge_id(broker, entry.next_hop);
      entry.path = tree.stats[broker];
    }
    rows.push_back(RowRef{
        broker, static_cast<std::uint32_t>(tables_[broker].size())});
    install_row(broker, entry);
    touched[broker] = 1;
  }
  return installed.size();
}

}  // namespace bdps
