// The socket transport's differential gate: on loss-free same-host trunks the
// multi-shard socket cluster must produce the *identical* delivery
// multiset as the in-process reactor — same (subscriber, message-id)
// pairs, same valid counts — for a star flood, a SimConfig mesh workload,
// and a storm replay with link outages.  With no effective deadlines and
// link-outage-only faults the delivery multiset is schedule-independent
// (outage windows hold copies, they never drop them), so any divergence
// is a transport bug: a trunk copy lost, duplicated, or misrouted.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "experiment/live.h"
#include "routing/fabric.h"
#include "topology/builders.h"
#include "topology/shard_plan.h"

namespace bdps {
namespace {

using Multiset = std::vector<std::pair<SubscriberId, MessageId>>;

Multiset sorted_pairs(const std::vector<LiveDelivery>& deliveries) {
  Multiset out;
  out.reserve(deliveries.size());
  for (const LiveDelivery& d : deliveries) {
    out.emplace_back(d.subscriber, d.message);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Multiset sorted_pairs(const LiveRunResult& r) {
  return sorted_pairs(r.delivery_log);
}

// ---- Star flood: hand-built broom, explicit message ids ------------------

struct StarRig {
  Topology topo;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> strategy;

  StarRig() {
    topo = build_star_of_chains(/*chains=*/6, /*depth=*/3,
                                LinkParams{1.0, 0.1});
    fabric = std::make_unique<RoutingFabric>(topo,
                                             flood_subscriptions(topo));
    strategy = make_strategy(StrategyKind::kEb);
  }

  LiveOptions options() const {
    LiveOptions opt;
    opt.processing_delay = 0.5;
    opt.speedup = 2000.0;
    opt.workers = 2;
    return opt;
  }

  static Message message(MessageId id) {
    return Message(id, 0, 0.0, 1.0, {{"A1", Value(1.0)}}, kNoDeadline);
  }
};

constexpr int kStarMessages = 12;

Multiset run_star_reactor(const StarRig& rig, std::size_t* deliveries) {
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.strategy.get(),
                  rig.options());
  net.start();
  for (int i = 0; i < kStarMessages; ++i) {
    net.publish(0, StarRig::message(i), MessageId(i));
  }
  net.drain();
  net.stop();
  *deliveries = net.stats().deliveries().size();
  return sorted_pairs(net.stats().deliveries());
}

Multiset run_star_socket(const StarRig& rig, int shards,
                         std::size_t* deliveries,
                         std::uint64_t* trunk_forwards) {
  const std::vector<std::uint32_t> broker_shard =
      greedy_edge_cut(rig.topo.graph, static_cast<std::size_t>(shards));
  std::vector<std::unique_ptr<LiveNetwork>> nets;
  std::vector<LiveNetwork*> raw;
  for (int shard = 0; shard < shards; ++shard) {
    LiveOptions opt = rig.options();
    opt.mode = LiveMode::kSocket;
    opt.net.shard = shard;
    opt.net.shard_count = shards;
    opt.net.broker_shard = broker_shard;
    nets.push_back(std::make_unique<LiveNetwork>(
        &rig.topo, rig.fabric.get(), rig.strategy.get(), opt));
    raw.push_back(nets.back().get());
  }
  std::vector<std::uint16_t> ports;
  for (const auto& net : nets) ports.push_back(net->trunk_port());
  for (const auto& net : nets) net->connect_trunks(ports);
  for (const auto& net : nets) net->start();
  for (const auto& net : nets) {
    EXPECT_TRUE(net->wait_trunks(std::chrono::milliseconds(10000)));
  }
  LiveNetwork* hub_home = nullptr;
  for (LiveNetwork* net : raw) {
    if (net->serves(0)) hub_home = net;
  }
  EXPECT_NE(hub_home, nullptr);
  for (int i = 0; i < kStarMessages; ++i) {
    hub_home->publish(0, StarRig::message(i), MessageId(i));
  }
  drain_live_cluster(raw);
  std::vector<LiveDelivery> all;
  *deliveries = 0;
  *trunk_forwards = 0;
  for (const auto& net : nets) {
    net->stop();
    const auto local = net->stats().deliveries();
    all.insert(all.end(), local.begin(), local.end());
    *deliveries += local.size();
    *trunk_forwards += net->trunk_forwards_sent();
    EXPECT_EQ(net->stats().lost(), 0u);
  }
  return sorted_pairs(all);
}

TEST(SocketEquality, StarFloodMatchesReactorExactly) {
  StarRig rig;
  std::size_t reactor_count = 0;
  const Multiset reactor = run_star_reactor(rig, &reactor_count);
  // Every message floods to every subscriber.
  ASSERT_EQ(reactor_count,
            static_cast<std::size_t>(kStarMessages) *
                rig.topo.subscriber_count());

  for (const int shards : {2, 3}) {
    std::size_t socket_count = 0;
    std::uint64_t trunk_forwards = 0;
    const Multiset socket =
        run_star_socket(rig, shards, &socket_count, &trunk_forwards);
    EXPECT_EQ(socket_count, reactor_count) << shards << " shards";
    EXPECT_EQ(socket, reactor) << shards << " shards";
    // The split must actually exercise the wire: a broom cut anywhere
    // sends every downstream copy across a trunk.
    EXPECT_GT(trunk_forwards, 0u) << shards << " shards";
  }
}

TEST(SocketEquality, TrunkSeverAndHealReentersService) {
  // Downing a *cut* edge severs its trunk for real; the endpoint
  // redials with capped backoff and the edge re-enters service (via the
  // same set_link_state path) once the fault lifts AND the trunk is back.
  // Copies queued toward the cut are held the whole time — loss-free.
  StarRig rig;
  const std::vector<std::uint32_t> broker_shard =
      greedy_edge_cut(rig.topo.graph, 2);
  // Find a cut edge to fault.
  BrokerId cut_a = kNoBroker, cut_b = kNoBroker;
  for (EdgeId e = 0; static_cast<std::size_t>(e) < rig.topo.graph.edge_count();
       ++e) {
    const Edge& edge = rig.topo.graph.edge(e);
    if (broker_shard[edge.from] != broker_shard[edge.to]) {
      cut_a = edge.from;
      cut_b = edge.to;
      break;
    }
  }
  ASSERT_NE(cut_a, kNoBroker);

  std::vector<std::unique_ptr<LiveNetwork>> nets;
  std::vector<LiveNetwork*> raw;
  for (int shard = 0; shard < 2; ++shard) {
    LiveOptions opt = rig.options();
    opt.mode = LiveMode::kSocket;
    opt.net.shard = shard;
    opt.net.shard_count = 2;
    opt.net.broker_shard = broker_shard;
    opt.net.reconnect_initial_ms = 1.0;  // Heal fast in-test.
    opt.net.reconnect_max_ms = 20.0;
    nets.push_back(std::make_unique<LiveNetwork>(
        &rig.topo, rig.fabric.get(), rig.strategy.get(), opt));
    raw.push_back(nets.back().get());
  }
  const std::vector<std::uint16_t> ports = {nets[0]->trunk_port(),
                                            nets[1]->trunk_port()};
  for (const auto& net : nets) net->connect_trunks(ports);
  for (const auto& net : nets) net->start();
  for (const auto& net : nets) {
    ASSERT_TRUE(net->wait_trunks(std::chrono::milliseconds(10000)));
  }

  for (LiveNetwork* net : raw) net->set_link_state(cut_a, cut_b, false);
  LiveNetwork* hub_home = raw[nets[0]->serves(0) ? 0 : 1];
  for (int i = 0; i < kStarMessages; ++i) {
    hub_home->publish(0, StarRig::message(i), MessageId(i));
  }
  // Give traffic time to reach (and queue at) the severed cut.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (LiveNetwork* net : raw) net->set_link_state(cut_a, cut_b, true);
  drain_live_cluster(raw);

  std::size_t delivered = 0;
  std::uint64_t reconnects = 0;
  for (const auto& net : nets) {
    net->stop();
    delivered += net->stats().deliveries().size();
    reconnects += net->trunk_reconnects();
    EXPECT_EQ(net->stats().lost(), 0u);
  }
  EXPECT_EQ(delivered, static_cast<std::size_t>(kStarMessages) *
                           rig.topo.subscriber_count());
  // The fault really did sever the trunk: at least one side redialed.
  EXPECT_GE(reconnects, 1u);
}

// ---- SimConfig workloads through run_live --------------------------------

LiveRunConfig mesh_config(LiveMode mode, std::size_t shards) {
  LiveRunConfig config;
  config.sim.seed = 4242;
  config.sim.topology = TopologyKind::kRandomMesh;
  config.sim.broker_count = 14;
  config.sim.extra_edges = 10;
  config.sim.publisher_count = 3;
  config.sim.subscriber_count = 30;
  config.sim.strategy = StrategyKind::kEbpc;
  config.sim.workload.scenario = ScenarioKind::kSsd;
  config.sim.workload.duration = seconds(20.0);
  config.sim.workload.publishing_rate_per_min = 90.0;
  // No effective deadline (2 sim hours vs a sub-second scaled run): the
  // delivery multiset is then workload-determined, not timing-determined.
  config.sim.workload.ssd_tiers = {{hours(2.0), 1.0}};
  config.mode = mode;
  config.workers = 2;
  config.speedup = 3000.0;
  config.shards = shards;
  return config;
}

TEST(SocketEquality, MeshWorkloadMatchesReactorAcrossShardCounts) {
  const LiveRunResult reactor =
      run_live(mesh_config(LiveMode::kReactor, 0));
  ASSERT_GT(reactor.published, 0u);
  ASSERT_EQ(reactor.lost, 0u);
  const Multiset want = sorted_pairs(reactor);

  for (const std::size_t shards : {2u, 4u}) {
    const LiveRunResult socket =
        run_live(mesh_config(LiveMode::kSocket, shards));
    EXPECT_EQ(socket.published, reactor.published) << shards << " shards";
    EXPECT_EQ(socket.deliveries, reactor.deliveries) << shards << " shards";
    EXPECT_EQ(socket.valid_deliveries, reactor.valid_deliveries);
    EXPECT_DOUBLE_EQ(socket.earning, reactor.earning);
    EXPECT_EQ(socket.lost, 0u);
    EXPECT_EQ(sorted_pairs(socket), want) << shards << " shards";
    EXPECT_GT(socket.trunk_forwards, 0u) << shards << " shards";
  }
}

LiveRunConfig storm_config(LiveMode mode, std::size_t shards) {
  LiveRunConfig config;
  config.sim.seed = 777;
  config.sim.topology = TopologyKind::kRing;
  config.sim.broker_count = 10;
  config.sim.publisher_count = 2;
  config.sim.subscriber_count = 20;
  config.sim.strategy = StrategyKind::kEb;
  config.sim.workload.scenario = ScenarioKind::kSsd;
  config.sim.workload.duration = seconds(20.0);
  config.sim.workload.publishing_rate_per_min = 90.0;
  config.sim.workload.ssd_tiers = {{hours(2.0), 1.0}};
  // Link-outage-only storm: down links *hold* copies (and in socket mode
  // sever + heal the trunk underneath), they never drop them, so the
  // replay keeps the run loss-free and the multiset schedule-independent.
  config.sim.faults.link_outages.push_back(
      LinkOutage{/*at=*/2000.0, /*until=*/8000.0, 0, 1});
  config.sim.faults.link_outages.push_back(
      LinkOutage{/*at=*/4000.0, /*until=*/10000.0, 4, 5});
  config.sim.faults.link_outages.push_back(
      LinkOutage{/*at=*/6000.0, /*until=*/12000.0, 7, 8});
  config.mode = mode;
  config.workers = 2;
  config.speedup = 3000.0;
  config.shards = shards;
  return config;
}

TEST(SocketEquality, StormReplayWithLinkOutagesMatchesReactor) {
  const LiveRunResult reactor =
      run_live(storm_config(LiveMode::kReactor, 0));
  ASSERT_GT(reactor.published, 0u);
  ASSERT_GT(reactor.deliveries, 0u);
  ASSERT_EQ(reactor.lost, 0u);

  const LiveRunResult socket =
      run_live(storm_config(LiveMode::kSocket, 3));
  EXPECT_EQ(socket.published, reactor.published);
  EXPECT_EQ(socket.lost, 0u);
  EXPECT_EQ(socket.deliveries, reactor.deliveries);
  EXPECT_EQ(sorted_pairs(socket), sorted_pairs(reactor));
}

}  // namespace
}  // namespace bdps
