// A forward's target broker comes off the wire.  A shard refuses a copy
// whose target names no broker, or a broker another shard serves, before
// it counts outstanding: the copy is counted lost, nothing is delivered,
// and the trunk keeps serving the copies behind it.  The peer here is a
// raw connection that says hello as shard 1 and writes forward frames.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "experiment/live.h"
#include "net/socket_link.h"
#include "net/wire.h"
#include "routing/fabric.h"
#include "topology/builders.h"

namespace bdps {
namespace {

/// Polls `done` every millisecond for up to ten seconds.
template <typename Pred>
bool eventually(Pred done) {
  for (int i = 0; i < 10000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(TrunkForwardTarget, BadTargetsAreLostAndTheShardKeepsServing) {
  // A hub with three chains of two brokers.  The hub (degree 3) and the
  // chain ends (degree 1, one subscriber each) are shard 0; the chain
  // middles (degree 2) are shard 1, which no process serves here.
  const Topology topo = build_star_of_chains(/*chains=*/3, /*depth=*/2,
                                             LinkParams{1.0, 0.1});
  const RoutingFabric fabric(topo, flood_subscriptions(topo));
  const auto strategy = make_strategy(StrategyKind::kEb);
  const Graph& graph = topo.graph;
  const int broker_count = static_cast<int>(graph.broker_count());
  std::vector<std::uint32_t> broker_shard(graph.broker_count(), 0);
  BrokerId leaf = kNoBroker;
  BrokerId middle = kNoBroker;
  for (BrokerId b = 0; b < broker_count; ++b) {
    const std::size_t degree = graph.out_edges(b).size();
    if (degree == 2) {
      broker_shard[static_cast<std::size_t>(b)] = 1;
      middle = b;
    } else if (degree == 1) {
      leaf = b;
    }
  }
  ASSERT_NE(leaf, kNoBroker);
  ASSERT_NE(middle, kNoBroker);

  LiveOptions opt;
  opt.mode = LiveMode::kSocket;
  opt.net.shard = 0;
  opt.net.shard_count = 2;
  opt.net.broker_shard = broker_shard;
  LiveNetwork net(&topo, &fabric, strategy.get(), opt);
  net.start();

  BlockingConn peer;
  ASSERT_TRUE(peer.dial(net.trunk_port()));
  ASSERT_TRUE(peer.send_frame(Frame{HelloFrame{1, 2, PeerRole::kPeer}}));
  const Message message(0, 0, 0.0, 1.0, {{"A1", Value(1.0)}}, kNoDeadline);
  std::uint64_t seq = 0;
  for (const BrokerId target : {BrokerId{-1}, BrokerId{broker_count}, middle}) {
    ASSERT_TRUE(peer.send_frame(Frame{ForwardFrame{++seq, target, message}}));
  }
  ASSERT_TRUE(eventually([&] { return net.stats().lost() == 3; }));
  EXPECT_EQ(net.outstanding(), 0u);
  EXPECT_TRUE(net.stats().deliveries().empty());

  // The same trunk still lands a copy for a broker this shard serves.
  ASSERT_TRUE(peer.send_frame(Frame{ForwardFrame{++seq, leaf, message}}));
  ASSERT_TRUE(
      eventually([&] { return net.stats().deliveries().size() == 1; }));
  net.drain();
  net.stop();
  EXPECT_EQ(net.trunk_forwards_received(), 4u);
  EXPECT_EQ(net.stats().lost(), 3u);
  EXPECT_EQ(net.stats().deliveries().size(), 1u);
  EXPECT_EQ(net.outstanding(), 0u);
}

}  // namespace
}  // namespace bdps
