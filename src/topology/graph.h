// Broker overlay graph.
//
// Brokers are dense ids [0, n); links are undirected in topology but stored
// as a pair of directed edges so each direction can later carry its own
// estimated parameters (asymmetric paths are common on the real Internet).
// Each directed edge owns a LinkModel.
//
// EdgeId is the system-wide link address: `edge_id(from, to)` resolves a
// directed link in O(log degree) over a per-broker adjacency kept sorted by
// destination (degree is small and the row is contiguous, so in practice
// this is a handful of comparisons in one cache line), and every consumer
// then indexes flat per-edge state (topology/edge_map.h) by the returned
// id.  `find_edge` survives as the validated slow path — a linear scan in
// insertion order — and debug builds assert the two agree.
//
// Migration notes (map-keyed link state → EdgeId, PR 3):
//   * `std::map<std::pair<BrokerId, BrokerId>, T>` per-link state →
//     `EdgeMap<T>` indexed by `graph.edge_id(from, to)`; per-link booleans
//     (dead links, membership) → `EdgeFlags`.
//   * Hot paths should carry the EdgeId alongside the neighbour id
//     (`LinkRef`, common/types.h) instead of re-resolving: subscription
//     table rows expose `next_hop_edge` and `OutputQueue::edge()` names
//     its link.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/types.h"
#include "topology/link.h"

namespace bdps {

struct Edge {
  BrokerId from = kNoBroker;
  BrokerId to = kNoBroker;
  LinkModel link;
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t broker_count) { resize(broker_count); }

  void resize(std::size_t broker_count);

  std::size_t broker_count() const { return adjacency_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  /// Adds a directed edge; returns its id.
  EdgeId add_edge(BrokerId from, BrokerId to, LinkParams params);

  /// Adds both directions with the same parameters (the common case for the
  /// paper's symmetric links); returns the forward edge id.
  EdgeId add_bidirectional(BrokerId a, BrokerId b, LinkParams params);

  const Edge& edge(EdgeId id) const { return edges_[id]; }
  Edge& edge(EdgeId id) { return edges_[id]; }

  /// Outgoing edge ids of a broker, in insertion order.
  const std::vector<EdgeId>& out_edges(BrokerId broker) const {
    return adjacency_[broker];
  }

  /// Directed edge from -> to, kNoEdge when absent: binary search over the
  /// destination-sorted adjacency row (the hot-path resolver; debug builds
  /// assert agreement with find_edge).  Parallel edges resolve to the
  /// first-added one, like find_edge.
  EdgeId edge_id(BrokerId from, BrokerId to) const;

  /// Finds the directed edge from -> to by linear scan; kNoEdge when
  /// absent.  The validated slow path behind edge_id — prefer edge_id
  /// everywhere speed matters.
  EdgeId find_edge(BrokerId from, BrokerId to) const;

  /// True when every edge references valid brokers and no self-loops exist.
  bool validate() const;

 private:
  struct OutRef {
    BrokerId to = kNoBroker;
    EdgeId id = kNoEdge;
  };

  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> adjacency_;
  /// Per-broker out-links sorted by destination (ties: insertion order);
  /// the index behind edge_id.
  std::vector<std::vector<OutRef>> sorted_out_;
};

}  // namespace bdps
