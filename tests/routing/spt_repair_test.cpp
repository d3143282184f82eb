// Incremental SPT repair (routing/spt.h: repair_tree_toward) and the
// repairable fabric's row surgery (RoutingFabric::apply_link_state).
//
// The repair contract is equivalence with a fresh Dijkstra over the
// filtered graph: path *costs*, remaining-path stats and reachability must
// match exactly after any down/up churn sequence (next hops may resolve
// equal-cost ties differently — the suffix-consistency invariant is
// checked directly instead).  The fabric layer must retire stale rows in
// place (row ids are load-bearing: queued copies and matching-index filter
// ids point at them) and route matches over the repaired tree.
#include "routing/spt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "routing/fabric.h"
#include "topology/builders.h"
#include "topology/edge_map.h"

namespace bdps {
namespace {

std::vector<std::vector<EdgeId>> reverse_adjacency(const Graph& graph) {
  std::vector<std::vector<EdgeId>> incoming(graph.broker_count());
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    incoming[graph.edge(static_cast<EdgeId>(e)).to].push_back(
        static_cast<EdgeId>(e));
  }
  return incoming;
}

/// Copy of `graph` without the down edges (fresh-compute oracle).
Graph filtered_graph(const Graph& graph, const EdgeFlags& down) {
  Graph filtered(graph.broker_count());
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    if (down.test(static_cast<EdgeId>(e))) continue;
    const Edge& edge = graph.edge(static_cast<EdgeId>(e));
    filtered.add_edge(edge.from, edge.to, edge.link.params());
  }
  return filtered;
}

void expect_tree_equivalent(const ShortestPathTree& repaired,
                            const ShortestPathTree& fresh,
                            const Graph& graph, const EdgeFlags& down,
                            const std::string& label) {
  ASSERT_EQ(repaired.next_hop.size(), fresh.next_hop.size()) << label;
  for (std::size_t b = 0; b < fresh.next_hop.size(); ++b) {
    ASSERT_EQ(repaired.reachable[b], fresh.reachable[b])
        << label << " broker " << b;
    if (!fresh.reachable[b]) continue;
    ASSERT_DOUBLE_EQ(repaired.stats[b].mean_ms_per_kb,
                     fresh.stats[b].mean_ms_per_kb)
        << label << " broker " << b;
    ASSERT_DOUBLE_EQ(repaired.stats[b].variance, fresh.stats[b].variance)
        << label << " broker " << b;
    ASSERT_EQ(repaired.stats[b].hop_brokers, fresh.stats[b].hop_brokers)
        << label << " broker " << b;
    // Suffix consistency over *up* links: the chosen next hop must be a
    // live edge and the stats must telescope along it.
    const BrokerId hop = repaired.next_hop[b];
    if (static_cast<BrokerId>(b) == repaired.destination) {
      ASSERT_EQ(hop, kNoBroker) << label;
      continue;
    }
    ASSERT_NE(hop, kNoBroker) << label << " broker " << b;
    const EdgeId via = graph.edge_id(static_cast<BrokerId>(b), hop);
    ASSERT_NE(via, kNoEdge) << label << " broker " << b;
    ASSERT_FALSE(down.test(via)) << label << " broker " << b;
    const PathStats want =
        repaired.stats[hop].then_link(graph.edge(via).link.params());
    ASSERT_DOUBLE_EQ(repaired.stats[b].mean_ms_per_kb, want.mean_ms_per_kb)
        << label << " broker " << b;
  }
}

/// Line: 0 -(50)- 1 -(60)- 2; plus shortcut 0 -(200)- 2.
Graph line_with_shortcut() {
  Graph g(3);
  g.add_bidirectional(0, 1, LinkParams{50.0, 10.0});
  g.add_bidirectional(1, 2, LinkParams{60.0, 20.0});
  g.add_bidirectional(0, 2, LinkParams{200.0, 5.0});
  return g;
}

/// Marks both directions of the undirected link (a, b) and records the
/// directed ids in `batch`.
void toggle_link(const Graph& graph, BrokerId a, BrokerId b, bool make_down,
                 EdgeFlags& down, std::vector<EdgeId>& batch) {
  for (const EdgeId e : {graph.edge_id(a, b), graph.edge_id(b, a)}) {
    ASSERT_NE(e, kNoEdge);
    if (make_down) {
      down.set(e);
    } else {
      down.reset(e);
    }
    batch.push_back(e);
  }
}

TEST(SptRepair, SeverRerouteAndReattach) {
  const Graph g = line_with_shortcut();
  const auto incoming = reverse_adjacency(g);
  EdgeFlags down(g.edge_count());

  ShortestPathTree tree = compute_tree_toward(g, 2);
  ASSERT_EQ(tree.next_hop[0], 1);

  // Down 1-2: broker 1's path crossed the severed link, broker 0's ran
  // through 1 — both must reroute onto the 200-cost shortcut.
  std::vector<EdgeId> newly_down;
  toggle_link(g, 1, 2, true, down, newly_down);
  const auto changed =
      repair_tree_toward(g, incoming, down, newly_down, {}, tree);
  expect_tree_equivalent(tree, compute_tree_toward(filtered_graph(g, down), 2),
                         g, down, "down 1-2");
  EXPECT_EQ(tree.next_hop[0], 2);
  EXPECT_EQ(tree.next_hop[1], 0);
  EXPECT_DOUBLE_EQ(tree.stats[1].mean_ms_per_kb, 250.0);
  EXPECT_EQ(changed, (std::vector<BrokerId>{0, 1}));

  // Up again: the strictly-improving cascade restores the original tree.
  std::vector<EdgeId> newly_up;
  toggle_link(g, 1, 2, false, down, newly_up);
  repair_tree_toward(g, incoming, down, {}, newly_up, tree);
  expect_tree_equivalent(tree, compute_tree_toward(g, 2), g, down, "up 1-2");
  EXPECT_EQ(tree.next_hop[0], 1);
  EXPECT_DOUBLE_EQ(tree.stats[0].mean_ms_per_kb, 110.0);
}

TEST(SptRepair, DisconnectionAndRecovery) {
  const Graph g = line_with_shortcut();
  const auto incoming = reverse_adjacency(g);
  EdgeFlags down(g.edge_count());
  ShortestPathTree tree = compute_tree_toward(g, 2);

  // Sever every link touching the destination: all other brokers drop to
  // unreachable.
  std::vector<EdgeId> newly_down;
  toggle_link(g, 1, 2, true, down, newly_down);
  toggle_link(g, 0, 2, true, down, newly_down);
  repair_tree_toward(g, incoming, down, newly_down, {}, tree);
  EXPECT_TRUE(tree.reachable[2]);
  EXPECT_FALSE(tree.reachable[0]);
  EXPECT_FALSE(tree.reachable[1]);

  // Restore only the shortcut: both reconnect through it.
  std::vector<EdgeId> newly_up;
  toggle_link(g, 0, 2, false, down, newly_up);
  repair_tree_toward(g, incoming, down, {}, newly_up, tree);
  expect_tree_equivalent(tree, compute_tree_toward(filtered_graph(g, down), 2),
                         g, down, "shortcut only");
  EXPECT_EQ(tree.next_hop[1], 0);
  EXPECT_DOUBLE_EQ(tree.stats[1].mean_ms_per_kb, 250.0);
}

/// Randomized churn: repeated down/up batches on a mesh, each repair
/// checked against a fresh Dijkstra over the filtered graph, plus
/// exactness of the changed-broker list (untouched brokers keep their
/// exact next hop and stats).
class SptRepairChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SptRepairChurn, MatchesFreshComputeAcrossBatches) {
  Rng rng(GetParam());
  const Topology topo =
      build_random_mesh(rng, 24, 20, 3, 6, 50.0, 100.0, 20.0);
  const Graph& g = topo.graph;
  const auto incoming = reverse_adjacency(g);

  // Canonical (min -> max) edge ids name the undirected links.
  std::vector<std::pair<BrokerId, BrokerId>> links;
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(static_cast<EdgeId>(e));
    if (edge.from < edge.to) links.emplace_back(edge.from, edge.to);
  }
  ASSERT_FALSE(links.empty());

  for (const BrokerId dest : {BrokerId{0}, BrokerId{5}, BrokerId{11}}) {
    EdgeFlags down(g.edge_count());
    EdgeFlags link_down(g.edge_count());  // Canonical-direction view.
    ShortestPathTree tree = compute_tree_toward(g, dest);

    for (int round = 0; round < 12; ++round) {
      std::vector<EdgeId> newly_down;
      std::vector<EdgeId> newly_up;
      EdgeFlags toggled(g.edge_count());
      const std::size_t toggles = 1 + rng.uniform_index(4);
      for (std::size_t t = 0; t < toggles; ++t) {
        const auto& [a, b] = links[rng.uniform_index(links.size())];
        const EdgeId canonical = g.edge_id(a, b);
        // One transition per link per batch — a link cannot appear in both
        // the down and the up list of the same instant.
        if (toggled.test(canonical)) continue;
        toggled.set(canonical);
        const bool make_down = !link_down.test(canonical);
        if (make_down) {
          link_down.set(canonical);
        } else {
          link_down.reset(canonical);
        }
        toggle_link(g, a, b, make_down, down,
                    make_down ? newly_down : newly_up);
      }

      const ShortestPathTree before = tree;
      const auto changed =
          repair_tree_toward(g, incoming, down, newly_down, newly_up, tree);
      ASSERT_TRUE(std::is_sorted(changed.begin(), changed.end()));
      ASSERT_TRUE(std::adjacent_find(changed.begin(), changed.end()) ==
                  changed.end());

      const std::string label = "dest " + std::to_string(dest) + " round " +
                                std::to_string(round);
      expect_tree_equivalent(
          tree, compute_tree_toward(filtered_graph(g, down), dest), g, down,
          label);

      // Brokers outside the changed list are untouched — same hop, stats
      // and reachability bit.
      for (std::size_t b = 0; b < g.broker_count(); ++b) {
        if (std::binary_search(changed.begin(), changed.end(),
                               static_cast<BrokerId>(b))) {
          continue;
        }
        ASSERT_EQ(tree.next_hop[b], before.next_hop[b]) << label;
        ASSERT_EQ(tree.reachable[b], before.reachable[b]) << label;
        if (tree.reachable[b]) {
          ASSERT_DOUBLE_EQ(tree.stats[b].mean_ms_per_kb,
                           before.stats[b].mean_ms_per_kb)
              << label;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SptRepairChurn,
                         ::testing::Values(1u, 7u, 23u, 61u, 97u));

/// A subscription's install set the way the fabric first built it: a
/// std::map over each publisher edge's path_from, the home serving every
/// publisher.
std::map<BrokerId, std::uint64_t> reference_install_set(
    const ShortestPathTree& tree, const Topology& topo, BrokerId home) {
  std::map<BrokerId, std::uint64_t> installed;
  for (std::size_t p = 0; p < topo.publisher_edges.size(); ++p) {
    for (const BrokerId broker : tree.path_from(topo.publisher_edges[p])) {
      installed[broker] |= 1ULL << p;
    }
  }
  installed[home] = ~0ULL;
  return installed;
}

/// Every subscription's enabled rows are exactly its reference install set
/// on the fabric's current tree: one row per broker, with the reference
/// mask, the tree's next hop and remaining-path stats.
void expect_tables_match_reference(const RoutingFabric& fabric,
                                   const Topology& topo,
                                   const std::string& label) {
  ASSERT_NO_THROW(fabric.check_invariants()) << label;
  std::vector<std::map<BrokerId, const SubscriptionEntry*>> live(
      fabric.subscription_count());
  for (std::size_t b = 0; b < fabric.broker_count(); ++b) {
    for (const SubscriptionEntry& entry :
         fabric.table(static_cast<BrokerId>(b)).entries()) {
      if (entry.disabled) continue;
      const auto si =
          static_cast<std::size_t>(entry.subscription - &fabric.subscription(0));
      ASSERT_TRUE(live[si].emplace(static_cast<BrokerId>(b), &entry).second)
          << label << ": two live rows of subscription " << si
          << " at broker " << b;
    }
  }
  for (std::size_t si = 0; si < fabric.subscription_count(); ++si) {
    const BrokerId home = fabric.subscription(si).home;
    const ShortestPathTree& tree = fabric.tree_toward(home);
    const auto want = reference_install_set(tree, topo, home);
    ASSERT_EQ(live[si].size(), want.size()) << label << " sub " << si;
    for (const auto& [broker, mask] : want) {
      const auto it = live[si].find(broker);
      ASSERT_NE(it, live[si].end())
          << label << " sub " << si << " broker " << broker;
      const SubscriptionEntry& entry = *it->second;
      EXPECT_EQ(entry.publisher_mask, mask)
          << label << " sub " << si << " broker " << broker;
      if (broker == home) {
        EXPECT_TRUE(entry.is_local()) << label << " sub " << si;
        continue;
      }
      EXPECT_EQ(entry.next_hop, tree.next_hop[broker])
          << label << " sub " << si << " broker " << broker;
      EXPECT_TRUE(entry.path == tree.stats[broker])
          << label << " sub " << si << " broker " << broker;
    }
  }
}

/// SptRepairChurn's batches applied to a repairable fabric: its tables
/// must equal the std::map / path_from reference after construction and
/// after every batch.
TEST_P(SptRepairChurn, FabricTablesMatchReferenceInstallSets) {
  Rng rng(GetParam());
  const Topology topo =
      build_random_mesh(rng, 24, 20, 3, 6, 50.0, 100.0, 20.0);
  const Graph& g = topo.graph;
  std::vector<Subscription> subs;
  for (std::size_t h = 0; h < topo.subscriber_homes.size(); ++h) {
    for (int copy = 0; copy < 2; ++copy) {
      Subscription sub;
      sub.subscriber = static_cast<SubscriberId>(subs.size());
      sub.home = topo.subscriber_homes[h];
      sub.allowed_delay = seconds(30.0);
      subs.push_back(sub);
    }
  }
  FabricOptions options;
  options.repairable = true;
  RoutingFabric fabric(topo, subs, options);
  expect_tables_match_reference(fabric, topo, "construction");

  std::vector<std::pair<BrokerId, BrokerId>> links;
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(static_cast<EdgeId>(e));
    if (edge.from < edge.to) links.emplace_back(edge.from, edge.to);
  }
  EdgeFlags down(g.edge_count());
  EdgeFlags link_down(g.edge_count());
  std::size_t rewritten = 0;
  for (int round = 0; round < 24; ++round) {
    std::vector<EdgeId> newly_down;
    std::vector<EdgeId> newly_up;
    EdgeFlags toggled(g.edge_count());
    const std::size_t toggles = 1 + rng.uniform_index(4);
    for (std::size_t t = 0; t < toggles; ++t) {
      const auto& [a, b] = links[rng.uniform_index(links.size())];
      const EdgeId canonical = g.edge_id(a, b);
      if (toggled.test(canonical)) continue;
      toggled.set(canonical);
      const bool make_down = !link_down.test(canonical);
      if (make_down) {
        link_down.set(canonical);
      } else {
        link_down.reset(canonical);
      }
      toggle_link(g, a, b, make_down, down,
                  make_down ? newly_down : newly_up);
    }
    rewritten += fabric.apply_link_state(newly_down, newly_up);
    expect_tables_match_reference(fabric, topo,
                                  "round " + std::to_string(round));
  }
  EXPECT_GT(rewritten, 0u);
}

// ---- Repairable fabric: row surgery and match routing ----

Topology diamond_topology() {
  Topology topo;
  topo.graph.resize(4);
  topo.graph.add_bidirectional(0, 1, LinkParams{10.0, 0.0});
  topo.graph.add_bidirectional(1, 3, LinkParams{10.0, 0.0});
  topo.graph.add_bidirectional(0, 2, LinkParams{50.0, 0.0});
  topo.graph.add_bidirectional(2, 3, LinkParams{50.0, 0.0});
  topo.publisher_edges = {0};
  topo.subscriber_homes = {3};
  return topo;
}

std::vector<Subscription> one_wildcard_sub_at(BrokerId home) {
  Subscription sub;
  sub.subscriber = 0;
  sub.home = home;
  sub.allowed_delay = minutes(2.0);
  sub.price = 2.0;
  return {sub};
}

/// match_at deliberately returns retired rows too (queued copies keep
/// following them); the broker's match_for is the path that skips
/// `disabled`.  Tests assert on the enabled view.
std::vector<const SubscriptionEntry*> enabled_rows(const RoutingFabric& fabric,
                                                   BrokerId broker,
                                                   const Message& message) {
  std::vector<const SubscriptionEntry*> rows = fabric.match_at(broker, message);
  std::erase_if(rows,
                [](const SubscriptionEntry* entry) { return entry->disabled; });
  return rows;
}

TEST(FabricRepair, ApplyLinkStateRetiresRowsInPlace) {
  const Topology topo = diamond_topology();
  FabricOptions options;
  options.repairable = true;
  RoutingFabric fabric(topo, one_wildcard_sub_at(3), options);

  const Message probe(0, 0, 0.0, 10.0, {});
  // Before: broker 0 forwards toward 1 (the cheap path).
  {
    const auto rows = enabled_rows(fabric, 0, probe);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0]->next_hop, 1);
    EXPECT_EQ(rows[0]->next_hop_edge, topo.graph.edge_id(0, 1));
  }
  const std::size_t rows_before = fabric.table(0).size();

  // Down 1-3: the install set moves to 0-2-3.
  const std::vector<EdgeId> down = {topo.graph.edge_id(1, 3),
                                    topo.graph.edge_id(3, 1)};
  const std::size_t rewritten = fabric.apply_link_state(down, {});
  EXPECT_GT(rewritten, 0u);
  fabric.check_invariants();

  {
    const auto rows = enabled_rows(fabric, 0, probe);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0]->next_hop, 2);
    EXPECT_EQ(rows[0]->next_hop_edge, topo.graph.edge_id(0, 2));
    EXPECT_FALSE(rows[0]->disabled);
  }
  // Broker 2 now carries the subscription; broker 1 no longer matches.
  EXPECT_EQ(enabled_rows(fabric, 2, probe).size(), 1u);
  EXPECT_TRUE(enabled_rows(fabric, 1, probe).empty());
  // Stale rows were disabled in place, not erased: the table only grows,
  // and the retired row is still addressable (queued copies point at it).
  EXPECT_GE(fabric.table(0).size(), rows_before);
  bool found_disabled = false;
  for (const SubscriptionEntry& entry : fabric.table(0).entries()) {
    if (entry.disabled) found_disabled = true;
  }
  EXPECT_TRUE(found_disabled);

  // Up again: routing returns to the cheap path.
  fabric.apply_link_state({}, down);
  fabric.check_invariants();
  {
    const auto rows = enabled_rows(fabric, 0, probe);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0]->next_hop, 1);
  }
  EXPECT_EQ(enabled_rows(fabric, 1, probe).size(), 1u);
}

TEST(FabricRepair, LocalRowsSurviveChurn) {
  const Topology topo = diamond_topology();
  FabricOptions options;
  options.repairable = true;
  RoutingFabric fabric(topo, one_wildcard_sub_at(3), options);
  const Message probe(0, 0, 0.0, 10.0, {});

  const std::vector<EdgeId> down = {topo.graph.edge_id(1, 3),
                                    topo.graph.edge_id(3, 1)};
  fabric.apply_link_state(down, {});
  fabric.check_invariants();
  // The home broker's local-delivery row is unaffected by the reroute.
  const auto rows = enabled_rows(fabric, 3, probe);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0]->is_local());
  EXPECT_FALSE(rows[0]->disabled);
}

}  // namespace
}  // namespace bdps
