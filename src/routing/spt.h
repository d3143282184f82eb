// Shortest-path trees over the overlay.
//
// §3.3: single-path routing minimising the mean transmission rate of the
// path.  We run Dijkstra *toward* each destination over reversed edges; the
// resulting in-tree gives every broker its next hop and the remaining-path
// statistics (NN_p, mu_p, sigma_p^2) in one pass, and guarantees suffix
// consistency: the remaining path of a message is independent of which
// publisher it came from, so one subscription-table entry per subscriber
// suffices (§4.2).  Ties break on broker id for determinism.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "routing/path_stats.h"
#include "topology/edge_map.h"
#include "topology/graph.h"

namespace bdps {

/// Routing information toward one destination broker.
struct ShortestPathTree {
  BrokerId destination = kNoBroker;
  /// next_hop[b]: neighbour to forward to from broker b (kNoBroker when b
  /// is the destination or unreachable).
  std::vector<BrokerId> next_hop;
  /// stats[b]: PathStats of the chosen path b -> destination.
  std::vector<PathStats> stats;
  /// reachable[b]: whether a path exists.
  std::vector<bool> reachable;

  /// Materialises the broker sequence from `from` to the destination
  /// (inclusive of both); empty when unreachable.
  std::vector<BrokerId> path_from(BrokerId from) const;
};

/// Reverse adjacency of `graph`: incoming edge ids per broker, in
/// ascending source broker order (each source's out-edge order within).
std::vector<std::vector<EdgeId>> incoming_edges(const Graph& graph);

/// Dijkstra on mean path rate toward `destination`.  `incoming` is
/// incoming_edges(graph), built once by a caller that computes many
/// trees over one graph.
ShortestPathTree compute_tree_toward(
    const Graph& graph, const std::vector<std::vector<EdgeId>>& incoming,
    BrokerId destination);

/// Same, building the reverse adjacency for this one tree.
ShortestPathTree compute_tree_toward(const Graph& graph,
                                     BrokerId destination);

/// Working buffers of repair_tree_toward.  A caller that repairs many trees
/// keeps one and passes it to every call, so a warmed repair allocates
/// nothing; the contents between calls mean nothing.
struct SptRepairScratch {
  /// One severed broker's routing state before the repair.
  struct Saved {
    BrokerId next_hop;
    PathStats stats;
    bool reachable;
  };
  std::vector<double> dist;
  /// Per broker: 0 not yet classified, 1 severed, 2 intact.
  std::vector<std::uint8_t> affected;
  std::vector<std::uint8_t> touched;
  std::vector<BrokerId> stack;
  std::vector<BrokerId> region;
  std::vector<Saved> saved;
  std::vector<std::pair<double, BrokerId>> heap;
  std::vector<BrokerId> improved;
};

/// Incremental repair of `tree` after a batch of link state changes
/// (dynamic SPT, Ramalingam–Reps style).  `down` is the complete current
/// down-set over `graph`'s edges (already including this batch);
/// `newly_down` / `newly_up` are the edges that changed in this batch.
/// `incoming` is the reverse adjacency of `graph` (incoming edge ids per
/// broker), precomputed by the caller since every tree shares it.
///
/// Severed subtrees (brokers whose next-hop chain crossed a newly-down
/// edge, by child closure) are invalidated and re-attached through a
/// Dijkstra seeded at their boundary; newly-up edges seed a strictly-
/// improving relaxation cascade.  Only the affected region is touched —
/// unaffected brokers keep their exact next hop and PathStats, so a repair
/// after a localised outage costs far less than a full recompute.  Equal-
/// cost ties may resolve differently from a fresh compute_tree_toward
/// (path *costs* always agree; suffix consistency is preserved either
/// way).
///
/// Fills `changed` with the brokers whose routing state (next hop,
/// reachability or remaining-path stats) actually changed, ascending and
/// deduplicated.
void repair_tree_toward(const Graph& graph,
                        const std::vector<std::vector<EdgeId>>& incoming,
                        const EdgeFlags& down,
                        const std::vector<EdgeId>& newly_down,
                        const std::vector<EdgeId>& newly_up,
                        ShortestPathTree& tree, SptRepairScratch& scratch,
                        std::vector<BrokerId>& changed);

/// Same with fresh buffers, returning the changed brokers.
std::vector<BrokerId> repair_tree_toward(
    const Graph& graph, const std::vector<std::vector<EdgeId>>& incoming,
    const EdgeFlags& down, const std::vector<EdgeId>& newly_down,
    const std::vector<EdgeId>& newly_up, ShortestPathTree& tree);

}  // namespace bdps
