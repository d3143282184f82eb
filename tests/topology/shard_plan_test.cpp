// greedy_edge_cut: partition validity and cut size on assorted shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/random.h"
#include "topology/shard_plan.h"

namespace bdps {
namespace {

Graph ring(std::size_t brokers) {
  Graph graph(brokers);
  for (std::size_t b = 0; b < brokers; ++b) {
    graph.add_bidirectional(static_cast<BrokerId>(b),
                            static_cast<BrokerId>((b + 1) % brokers),
                            LinkParams{50.0, 10.0});
  }
  return graph;
}

Graph random_mesh(std::size_t brokers, std::size_t extra, std::uint64_t seed) {
  Graph graph = ring(brokers);
  Rng rng(seed);
  for (std::size_t i = 0; i < extra; ++i) {
    const auto a = static_cast<BrokerId>(rng.uniform_index(brokers));
    const auto b = static_cast<BrokerId>(rng.uniform_index(brokers));
    if (a == b || graph.edge_id(a, b) != kNoEdge) continue;
    graph.add_bidirectional(a, b, LinkParams{60.0, 15.0});
  }
  return graph;
}

std::size_t shard_count(const std::vector<std::uint32_t>& shard_of) {
  std::set<std::uint32_t> shards(shard_of.begin(), shard_of.end());
  return shards.size();
}

std::size_t cut_edges(const Graph& graph,
                      const std::vector<std::uint32_t>& shard_of) {
  std::size_t cut = 0;
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(static_cast<EdgeId>(e));
    cut += shard_of[static_cast<std::size_t>(edge.from)] !=
           shard_of[static_cast<std::size_t>(edge.to)];
  }
  return cut;
}

void check_valid(const Graph& graph, const std::vector<std::uint32_t>& shard_of,
                 std::size_t requested) {
  ASSERT_EQ(shard_of.size(), graph.broker_count());
  const std::size_t shards =
      std::min<std::size_t>(requested, graph.broker_count());
  // Ids are dense in [0, shards) and every shard holds a broker.
  std::vector<std::size_t> members(shards, 0);
  for (const std::uint32_t shard : shard_of) {
    ASSERT_LT(shard, shards);
    ++members[shard];
  }
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_GT(members[s], 0u) << "empty shard " << s;
  }
}

TEST(ShardPlan, GreedyCoversEveryShape) {
  for (const std::uint64_t seed : {1ull, 5ull, 9ull}) {
    const Graph graph = random_mesh(40, 60, seed);
    for (const std::size_t shards : {1u, 2u, 4u, 7u, 40u, 64u}) {
      check_valid(graph, greedy_edge_cut(graph, shards), shards);
    }
  }
}

TEST(ShardPlan, GreedyCutsOnlyTheBridgeOfAClusteredMesh) {
  // Two dense clusters joined by one bridge, ids interleaved so id ranges
  // would split both clusters; greedy growth keeps them whole.
  const std::size_t half = 12;
  Graph graph(2 * half);
  for (std::size_t i = 0; i < half; ++i) {
    for (std::size_t j = i + 1; j < half; ++j) {
      graph.add_bidirectional(static_cast<BrokerId>(2 * i),
                              static_cast<BrokerId>(2 * j),
                              LinkParams{50.0, 10.0});
      graph.add_bidirectional(static_cast<BrokerId>(2 * i + 1),
                              static_cast<BrokerId>(2 * j + 1),
                              LinkParams{50.0, 10.0});
    }
  }
  graph.add_bidirectional(0, 1, LinkParams{50.0, 10.0});  // The bridge.
  const std::vector<std::uint32_t> greedy = greedy_edge_cut(graph, 2);
  check_valid(graph, greedy, 2);
  EXPECT_LE(cut_edges(graph, greedy), 2u);  // Only the bridge crosses.
}

TEST(ShardPlan, ClampsToBrokerCount) {
  const Graph graph = ring(3);
  EXPECT_EQ(shard_count(greedy_edge_cut(graph, 64)), 3u);
  EXPECT_THROW(greedy_edge_cut(graph, 0), std::invalid_argument);
}

}  // namespace
}  // namespace bdps
