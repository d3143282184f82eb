// One event loop per socket shard: reactor worker 0 drives the trunk
// endpoint, so a kSocket shard runs exactly `workers` threads.  These
// cases pin the structure (thread count), the hand-off of copies that
// other workers send across the cut (through worker 0's mailbox), and the
// stop contract without a drain (worker 0 stops the transport and settles
// never-acked copies before the workers' outstanding == 0 exit).
#include <gtest/gtest.h>

#include <dirent.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "experiment/live.h"
#include "routing/fabric.h"
#include "topology/shard_plan.h"
#include "topology/builders.h"

namespace bdps {
namespace {

std::size_t task_count() {
  std::size_t count = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    closedir(dir);
  }
  return count;
}

/// task_count() once it holds still: a joined thread can stay listed for
/// a moment after pthread_join returns.
std::size_t settled_task_count() {
  std::size_t count = task_count();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::size_t again = task_count();
    if (again == count) break;
    count = again;
  }
  return count;
}

/// Two-colours a tree by BFS depth from broker 0: every link crosses the
/// cut between shard 0 and shard 1.
std::vector<std::uint32_t> two_colour(const Graph& graph) {
  std::vector<std::uint32_t> colour(graph.broker_count(), 2);
  std::vector<BrokerId> frontier{0};
  colour[0] = 0;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const BrokerId b = frontier[head];
    for (const EdgeId e : graph.out_edges(b)) {
      const BrokerId to = graph.edge(e).to;
      if (colour[to] != 2) continue;
      colour[to] = 1 - colour[b];
      frontier.push_back(to);
    }
  }
  return colour;
}

struct Rig {
  Topology topo;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> strategy;
  std::vector<std::uint32_t> broker_shard;

  Rig() {
    topo = build_star_of_chains(/*chains=*/6, /*depth=*/3,
                                LinkParams{1.0, 0.1});
    fabric = std::make_unique<RoutingFabric>(topo, flood_subscriptions(topo));
    strategy = make_strategy(StrategyKind::kEb);
    broker_shard = two_colour(topo.graph);
  }

  static Message message(MessageId id) {
    return Message(id, 0, 0.0, 1.0, {{"A1", Value(1.0)}}, kNoDeadline);
  }
};

struct Cluster {
  std::vector<std::unique_ptr<LiveNetwork>> nets;
  std::vector<LiveNetwork*> raw;

  Cluster(const Rig& rig, std::size_t workers, double speedup,
          TimeMs processing_delay) {
    for (int shard = 0; shard < 2; ++shard) {
      LiveOptions opt;
      opt.processing_delay = processing_delay;
      opt.speedup = speedup;
      opt.workers = workers;
      opt.mode = LiveMode::kSocket;
      opt.net.shard = shard;
      opt.net.shard_count = 2;
      opt.net.broker_shard = rig.broker_shard;
      nets.push_back(std::make_unique<LiveNetwork>(
          &rig.topo, rig.fabric.get(), rig.strategy.get(), opt));
      raw.push_back(nets.back().get());
    }
  }

  void start() {
    const std::vector<std::uint16_t> ports{nets[0]->trunk_port(),
                                           nets[1]->trunk_port()};
    for (const auto& net : nets) net->connect_trunks(ports);
    for (const auto& net : nets) net->start();
    for (const auto& net : nets) {
      ASSERT_TRUE(net->wait_trunks(std::chrono::milliseconds(10000)));
    }
  }

  LiveNetwork& hub_home() { return *raw[nets[0]->serves(0) ? 0 : 1]; }
};

TEST(ShardEventLoop, SocketShardRunsExactlyItsWorkers) {
  const Rig rig;
  // A throwaway thread first: a sanitizer runtime starts its helper
  // thread at the first thread creation, and the baseline must hold it.
  std::thread([] {}).join();
  for (const std::size_t workers : {1u, 3u}) {
    Cluster cluster(rig, workers, 2000.0, 0.5);
    const std::size_t idle = settled_task_count();
    cluster.start();
    // Trunks are up in both directions, so every shard is serving its
    // sockets — with no thread beyond its reactor workers.
    EXPECT_EQ(cluster.nets[0]->worker_count(), workers);
    EXPECT_EQ(task_count() - idle, 2 * workers) << workers << " workers";
    for (int i = 0; i < 4; ++i) {
      cluster.hub_home().publish(0, Rig::message(i), MessageId(i));
    }
    drain_live_cluster(cluster.raw);
    std::size_t delivered = 0;
    for (LiveNetwork* net : cluster.raw) {
      net->stop();
      delivered += net->stats().deliveries().size();
    }
    EXPECT_EQ(delivered, 4 * rig.topo.subscriber_count());
  }
}

TEST(ShardEventLoop, SecondWorkerCopiesCrossTheTrunkThroughWorkerZero) {
  const Rig rig;
  // The reactor places brokers with the greedy edge cut over the whole
  // topology; find cut links whose source sits on worker 1 — their copies
  // reach the trunk only through worker 0's mailbox.
  const std::vector<std::uint32_t> worker_of =
      greedy_edge_cut(rig.topo.graph, 2);
  std::size_t worker1_cut_links = 0;
  for (std::size_t e = 0; e < rig.topo.graph.edge_count(); ++e) {
    const Edge& edge = rig.topo.graph.edge(static_cast<EdgeId>(e));
    if (rig.broker_shard[edge.from] != rig.broker_shard[edge.to] &&
        worker_of[edge.from] == 1) {
      ++worker1_cut_links;
    }
  }
  ASSERT_GT(worker1_cut_links, 0u);

  constexpr int kMessages = 24;
  Cluster cluster(rig, /*workers=*/2, 2000.0, 0.5);
  cluster.start();
  for (int i = 0; i < kMessages; ++i) {
    cluster.hub_home().publish(0, Rig::message(i), MessageId(i));
  }
  drain_live_cluster(cluster.raw);
  std::size_t delivered = 0;
  std::uint64_t forwards = 0;
  for (LiveNetwork* net : cluster.raw) {
    net->stop();
    delivered += net->stats().deliveries().size();
    forwards += net->trunk_forwards_sent();
    EXPECT_EQ(net->stats().lost(), 0u);
  }
  EXPECT_EQ(delivered, kMessages * rig.topo.subscriber_count());
  // Every link crosses the cut: every copy after the hub's own rode a
  // trunk, one per link of the flood tree per message.
  EXPECT_EQ(forwards, kMessages * (rig.topo.graph.edge_count() / 2));
}

TEST(ShardEventLoop, StopMidBurstWithoutDrainSettlesEveryCopy) {
  const Rig rig;
  // A slow clock keeps the burst in flight: each broker needs ~0.1 ms of
  // wall time per message, so both stops land while copies are queued at
  // brokers, on links and inside the trunks.
  constexpr int kBurst = 300;
  Cluster cluster(rig, /*workers=*/2, 10.0, 1.0);
  cluster.start();
  for (int i = 0; i < kBurst; ++i) {
    cluster.hub_home().publish(0, Rig::message(i), MessageId(i));
  }
  for (LiveNetwork* net : cluster.raw) net->stop();

  std::size_t lost = 0;
  for (int x = 0; x < 2; ++x) {
    const LiveNetwork& self = *cluster.raw[x];
    const LiveNetwork& peer = *cluster.raw[1 - x];
    const std::size_t published = &self == &cluster.hub_home() ? kBurst : 0;
    EXPECT_EQ(self.outstanding(), 0u) << "shard " << x;
    // Every link crosses the cut, so a shard's receptions are exactly its
    // own publishes plus the copies its trunk delivered: nothing deposited
    // was stranded by the stop.
    EXPECT_EQ(self.stats().receptions(),
              published + self.trunk_forwards_received())
        << "shard " << x;
    // A forward the peer never received is one this shard counted lost
    // (an acked copy may be counted on both sides, never on neither).
    EXPECT_LE(self.trunk_forwards_sent(),
              peer.trunk_forwards_received() + self.stats().lost())
        << "shard " << x;
    EXPECT_LE(peer.trunk_forwards_received(), self.trunk_forwards_sent());
    lost += self.stats().lost();
  }
  // The stop really cut the burst short.
  EXPECT_GT(lost, 0u);
}

}  // namespace
}  // namespace bdps
