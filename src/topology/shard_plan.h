// Domain decomposition of the broker overlay.
//
// greedy_edge_cut partitions the brokers of a Graph into P shards and
// returns each broker's shard id: the live reactor gives each shard to one
// worker thread, and a socket cluster (experiment/live.h) gives each to
// one LiveNetwork.  Every directed edge whose endpoints land in different
// shards is a *cut* edge, and a copy crossing it pays a mailbox or trunk
// handoff, so fewer cut edges mean fewer cross-shard hops.
//
// The cut is METIS-lite: seed each shard with the highest-degree
// unassigned broker, then grow shards one broker at a time, always
// extending the lightest shard with the frontier broker that has the most
// neighbours already inside it.  No external dependency and deterministic.
//
// The result is a pure function of the graph and P, so every process of a
// cluster computes the same layout independently.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/graph.h"

namespace bdps {

/// Shard id of each broker, in [0, min(P, broker count)), every shard
/// non-empty.  Greedy growth from high-degree seeds, minimising the edge
/// cut.  P is clamped to the broker count; throws std::invalid_argument
/// for P = 0.
std::vector<std::uint32_t> greedy_edge_cut(const Graph& graph,
                                           std::size_t shards);

}  // namespace bdps
