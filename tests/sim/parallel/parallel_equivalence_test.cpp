// Sequential-vs-parallel equivalence beyond the golden matrix.
//
// Two layers:
//   * SimResult equality across a randomized grid of configurations
//     (topologies x strategies x feature toggles x shard counts) — every
//     field compared exactly against the sequential engine's result.
//   * Trace-stream equality on a hand-built overlay: the parallel engine
//     replays trace records at window barriers, and the replayed stream
//     must equal the sequential stream event for event, field for field —
//     the strongest observable of the merge order.
#include <gtest/gtest.h>

#include "../equivalence_rig.h"

namespace bdps {
namespace {

using equivalence::expect_same_result;

TEST(ParallelEquivalence, RandomizedConfigGrid) {
  std::vector<SimConfig> configs;
  std::uint64_t seed = 11;
  for (const TopologyKind topology :
       {TopologyKind::kRing, TopologyKind::kRandomMesh,
        TopologyKind::kScaleFree}) {
    for (const StrategyKind strategy :
         {StrategyKind::kFifo, StrategyKind::kEbpc}) {
      SimConfig config = paper_base_config(ScenarioKind::kSsd, 10.0,
                                           strategy, seed++);
      config.workload.duration = seconds(30.0);
      config.topology = topology;
      config.broker_count = 20;
      config.extra_edges = 12;
      config.scale_free_edges_per_node = 2;
      configs.push_back(config);
    }
  }
  // Feature toggles on a mesh: failures, multipath dedup, serialization,
  // estimation — the states the windows must not smear.
  {
    SimConfig config = paper_base_config(ScenarioKind::kBoth, 12.0,
                                         StrategyKind::kEbpc, 23);
    config.workload.duration = seconds(30.0);
    config.topology = TopologyKind::kRandomMesh;
    config.broker_count = 18;
    config.extra_edges = 14;
    config.multipath = true;
    config.online_estimation = true;
    config.belief_noise_frac = 0.3;
    config.serialize_processing = true;
    config.random_link_failures = 3;
    configs.push_back(config);
  }

  for (const SimConfig& base : configs) {
    SimConfig sequential_config = base;
    sequential_config.shards = 0;
    const SimResult sequential = run_simulation(sequential_config);
    for (const std::size_t shards : {1u, 3u, 5u}) {
      SimConfig sharded_config = base;
      sharded_config.shards = shards;
      const SimResult sharded = run_simulation(sharded_config);
      expect_same_result(
          sequential, sharded,
          topology_name(base.topology) + "/" +
              strategy_name(base.strategy) + "/P" + std::to_string(shards));
    }
  }
}

TEST(ParallelEquivalence, TraceStreamsMatchExactly) {
  const equivalence::TraceRing rig;
  SimulatorOptions options;
  options.online_estimation = true;
  options.faults =
      std::make_shared<const CompiledFaults>(CompiledFaults::compile(
          {}, rig.topo.graph, {LinkFailure{seconds(20.0), 2, 3}}));
  equivalence::TracedRun sequential;
  equivalence::expect_same_traces(rig, options, sequential);
  EXPECT_GT(sequential.collector.lost_copies(), 0u);
}

TEST(ParallelEquivalence, RejectsNonPositiveMessageSizes) {
  const equivalence::TraceRing rig;
  const auto fabric = rig.make_fabric();
  SimulatorOptions options;
  options.shards = 2;
  ParallelSimulator parallel(&rig.topo, &rig.topo.graph, fabric.get(),
                             rig.strategy.get(), options, Rng(1));
  parallel.schedule_publish(std::make_shared<Message>(
      1, 0, 0.0, 0.0, std::vector<Attribute>{}));
  EXPECT_THROW(parallel.run(), std::invalid_argument);
}

}  // namespace
}  // namespace bdps
