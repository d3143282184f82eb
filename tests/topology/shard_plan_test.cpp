// ShardPlan: partition validity and cut bookkeeping on assorted shapes.
#include <gtest/gtest.h>

#include <set>

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

void check_valid(const Graph& graph, const ShardPlan& plan,
                 std::size_t requested) {
  EXPECT_LE(plan.shard_count(), requested);
  EXPECT_GE(plan.shard_count(), std::min<std::size_t>(
                                    requested, graph.broker_count()));
  std::set<BrokerId> seen;
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    EXPECT_FALSE(plan.members(s).empty()) << "empty shard " << s;
    BrokerId previous = -1;
    for (const BrokerId b : plan.members(s)) {
      EXPECT_GT(b, previous);  // Ascending.
      previous = b;
      EXPECT_EQ(plan.shard_of(b), s);
      EXPECT_TRUE(seen.insert(b).second) << "broker in two shards";
    }
  }
  EXPECT_EQ(seen.size(), graph.broker_count());
  // Cut edges are exactly the cross-shard directed edges, ascending.
  std::vector<EdgeId> expected;
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    const Edge& edge = graph.edge(static_cast<EdgeId>(e));
    if (plan.shard_of(edge.from) != plan.shard_of(edge.to)) {
      expected.push_back(static_cast<EdgeId>(e));
    }
  }
  EXPECT_EQ(plan.cut_edges(), expected);
}

TEST(ShardPlan, GreedyCoversEveryShape) {
  for (const std::uint64_t seed : {1ull, 5ull, 9ull}) {
    const Graph graph = random_mesh(40, 60, seed);
    for (const std::size_t shards : {1u, 2u, 4u, 7u, 40u, 64u}) {
      check_valid(graph, ShardPlan::greedy_edge_cut(graph, shards), shards);
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
  const ShardPlan greedy = ShardPlan::greedy_edge_cut(graph, 2);
  check_valid(graph, greedy, 2);
  EXPECT_LE(greedy.cut_edges().size(), 2u);  // Only the bridge crosses.
}

TEST(ShardPlan, ClampsToBrokerCount) {
  const Graph graph = ring(3);
  EXPECT_EQ(ShardPlan::greedy_edge_cut(graph, 64).shard_count(), 3u);
  EXPECT_THROW(ShardPlan::greedy_edge_cut(graph, 0), std::invalid_argument);
}

}  // namespace
}  // namespace bdps
