// End-to-end gate for the distributed daemon: run_live_cluster spawns
// >= 4 brokerd processes (the real binary, via BDPS_BROKERD_PATH),
// distributes a SimConfig workload over the control plane, and the merged
// cross-process result must match the in-process reactor bit-for-bit on
// the (subscriber, message-id) delivery multiset — the same determinism
// the in-process socket gate pins, now across fork/exec, serialized
// config, and same-host trunks.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "experiment/cluster.h"

namespace bdps {
namespace {

using Multiset = std::vector<std::pair<SubscriberId, MessageId>>;

Multiset sorted_pairs(const LiveRunResult& r) {
  Multiset out;
  out.reserve(r.delivery_log.size());
  for (const LiveDelivery& d : r.delivery_log) {
    out.emplace_back(d.subscriber, d.message);
  }
  std::sort(out.begin(), out.end());
  return out;
}

LiveRunConfig cluster_config() {
  LiveRunConfig config;
  config.sim.seed = 1207;
  config.sim.topology = TopologyKind::kRandomMesh;
  config.sim.broker_count = 16;
  config.sim.extra_edges = 12;
  config.sim.publisher_count = 3;
  config.sim.subscriber_count = 32;
  config.sim.strategy = StrategyKind::kEbpc;
  config.sim.workload.scenario = ScenarioKind::kSsd;
  config.sim.workload.duration = seconds(20.0);
  config.sim.workload.publishing_rate_per_min = 90.0;
  // No effective deadline: the delivery multiset is workload-determined.
  config.sim.workload.ssd_tiers = {{hours(2.0), 1.0}};
  config.mode = LiveMode::kSocket;
  config.shards = 4;
  config.workers = 2;
  config.speedup = 3000.0;
  return config;
}

TEST(BrokerdCluster, FourProcessRunCompletesAndMatchesTheReactor) {
  const LiveRunConfig config = cluster_config();

  LiveRunConfig reactor_config = config;
  reactor_config.mode = LiveMode::kReactor;
  reactor_config.shards = 0;
  const LiveRunResult reactor = run_live(reactor_config);
  ASSERT_GT(reactor.published, 0u);
  ASSERT_EQ(reactor.lost, 0u);

  const LiveRunResult cluster =
      run_live_cluster(config, BDPS_BROKERD_PATH);
  EXPECT_EQ(cluster.published, reactor.published);
  EXPECT_EQ(cluster.deliveries, reactor.deliveries);
  EXPECT_EQ(cluster.valid_deliveries, reactor.valid_deliveries);
  EXPECT_DOUBLE_EQ(cluster.earning, reactor.earning);
  EXPECT_EQ(cluster.lost, 0u);
  EXPECT_EQ(cluster.delivery_log.size(), cluster.deliveries);
  // A 4-way cut of a 16-broker mesh must push real traffic over the trunks.
  EXPECT_GT(cluster.trunk_forwards, 0u);
  EXPECT_EQ(sorted_pairs(cluster), sorted_pairs(reactor));
}

TEST(BrokerdCluster, SurvivesALinkOutageStormLossFree) {
  LiveRunConfig config = cluster_config();
  config.sim.seed = 1208;
  // Pick outage targets from the topology this seed actually generates (a
  // random mesh — hardcoded broker pairs may not be links).
  const LiveWorld probe = build_live_world(config);
  const Edge& first = probe.topology.graph.edge(0);
  const Edge& last =
      probe.topology.graph.edge(probe.topology.graph.edge_count() - 1);
  config.sim.faults.link_outages.push_back(
      LinkOutage{/*down_at=*/2000.0, /*up_at=*/9000.0, first.from, first.to});
  config.sim.faults.link_outages.push_back(
      LinkOutage{/*down_at=*/5000.0, /*up_at=*/12000.0, last.from, last.to});

  LiveRunConfig reactor_config = config;
  reactor_config.mode = LiveMode::kReactor;
  reactor_config.shards = 0;
  const LiveRunResult reactor = run_live(reactor_config);
  ASSERT_EQ(reactor.lost, 0u);

  // Down links hold copies (and sever/heal trunks underneath); nothing is
  // dropped, so the cross-process multiset still matches exactly.
  const LiveRunResult cluster =
      run_live_cluster(config, BDPS_BROKERD_PATH);
  EXPECT_EQ(cluster.published, reactor.published);
  EXPECT_EQ(cluster.lost, 0u);
  EXPECT_EQ(cluster.deliveries, reactor.deliveries);
  EXPECT_EQ(sorted_pairs(cluster), sorted_pairs(reactor));
}

TEST(BrokerdCluster, ReportsASpawnFailureAsACleanError) {
  const LiveRunConfig config = cluster_config();
  // A nonexistent daemon binary must surface as a thrown error from the
  // controller (which reaps whatever it spawned), not a hang: the child's
  // exec fails, the control-plane accept loop times out.
  EXPECT_THROW(run_live_cluster(config, "/nonexistent/brokerd"),
               std::runtime_error);
}

}  // namespace
}  // namespace bdps
