// Domain decomposition of the broker overlay.
//
// A ShardPlan partitions the brokers of a Graph into P shards: the live
// reactor gives each shard to one worker thread, and a socket cluster
// (experiment/live.h live_broker_shards) gives each to one LiveNetwork.
// Every directed edge whose endpoints land in different shards is a *cut*
// edge, and a copy crossing it pays a mailbox or trunk handoff, so fewer
// cut edges mean fewer cross-shard hops.
//
// greedy_edge_cut() is METIS-lite: seed each shard with the highest-degree
// unassigned broker, then grow shards one broker at a time, always
// extending the lightest shard with the frontier broker that has the most
// neighbours already inside it.  No external dependency and deterministic.
//
// The plan is a pure function of the graph and P, so the same plan can be
// rebuilt for replay/debugging.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/graph.h"

namespace bdps {

class ShardPlan {
 public:
  /// Greedy growth from high-degree seeds, minimising the edge cut.  P is
  /// clamped to the broker count; throws std::invalid_argument for P = 0.
  static ShardPlan greedy_edge_cut(const Graph& graph, std::size_t shards);

  std::size_t shard_count() const { return members_.size(); }
  std::size_t broker_count() const { return shard_of_.size(); }

  std::uint32_t shard_of(BrokerId broker) const {
    return shard_of_[static_cast<std::size_t>(broker)];
  }

  /// Brokers of one shard, ascending.
  const std::vector<BrokerId>& members(std::size_t shard) const {
    return members_[shard];
  }

  /// Directed edges whose source and destination live in different shards,
  /// ascending by edge id.
  const std::vector<EdgeId>& cut_edges() const { return cut_edges_; }

 private:
  ShardPlan(const Graph& graph, std::vector<std::uint32_t> shard_of,
            std::size_t shards);

  std::vector<std::uint32_t> shard_of_;
  std::vector<std::vector<BrokerId>> members_;
  std::vector<EdgeId> cut_edges_;
};

}  // namespace bdps
