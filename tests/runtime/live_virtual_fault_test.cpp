// Live fault rules pinned on the virtual clock.  One reactor worker steps
// the shared BrokerStep at exact instants, so a crash or a link-down can be
// placed inside a processing delay or a transmission instead of racing it.
//
// Line 0 - 1 - 2, both subscribers at broker 2, deterministic links (a
// 50 KB copy takes exactly 100 ms per hop) and PD = 1 ms.  A message
// published at t = 0 is processed at 0 by t = 1, crosses 0 -> 1 over
// (1, 101], is processed at 1 by 102, crosses 1 -> 2 over (102, 202] and
// is delivered at 203.
#include <gtest/gtest.h>

#include <memory>

#include "runtime/live_network.h"

namespace bdps {
namespace {

struct LineRig {
  Topology topo;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> strategy = make_strategy(StrategyKind::kEb);

  LineRig() {
    topo.graph.resize(3);
    topo.graph.add_bidirectional(0, 1, LinkParams{2.0, 0.0});
    topo.graph.add_bidirectional(1, 2, LinkParams{2.0, 0.0});
    topo.publisher_edges = {0};
    topo.subscriber_homes = {2, 2};
    std::vector<Subscription> subs;
    for (int s = 0; s < 2; ++s) {
      Subscription sub;
      sub.subscriber = s;
      sub.home = 2;
      sub.allowed_delay = kNoDeadline;
      sub.price = 1.0;
      subs.push_back(sub);
    }
    fabric = std::make_unique<RoutingFabric>(topo, std::move(subs));
  }

  std::unique_ptr<LiveNetwork> start() const {
    LiveOptions options;
    options.processing_delay = 1.0;
    options.workers = 1;
    auto net = std::make_unique<LiveNetwork>(&topo, fabric.get(),
                                             strategy.get(), options);
    net->start_virtual();
    return net;
  }

  /// Publishes one 50 KB message at `at`.
  static void publish_at(LiveNetwork& net, TimeMs at) {
    net.run_until(at);
    net.publish(0, Message(0, 0, 0.0, 50.0, {{"A1", Value(1.0)}},
                           kNoDeadline));
  }
};

TEST(LiveVirtualFaults, CrashDuringProcessingLosesTheCopyEvenAfterRestart) {
  const LineRig rig;
  auto net = rig.start();
  LineRig::publish_at(*net, 0.0);
  net->run_until(101.2);  // Broker 1 processes the copy over (101, 102].
  ASSERT_EQ(net->stats().receptions(), 2u);
  net->set_broker_state(1, false);
  net->run_until(101.5);
  net->set_broker_state(1, true);  // Back up before the PD ends.
  net->run_until(150.0);
  EXPECT_EQ(net->stats().lost(), 1u);
  EXPECT_EQ(net->outstanding(), 0u);

  // The restarted broker serves the next message end to end.
  LineRig::publish_at(*net, 300.0);
  net->run_until(kNoDeadline);
  net->stop();
  EXPECT_EQ(net->stats().deliveries().size(), 2u);
  EXPECT_EQ(net->stats().valid_deliveries(), 2u);
  EXPECT_EQ(net->stats().lost(), 1u);
  EXPECT_EQ(net->stats().receptions(), 2u + 3u);
}

TEST(LiveVirtualFaults, CrashWithAFrameOnTheWireLosesItAtCompletion) {
  const LineRig rig;
  auto net = rig.start();
  LineRig::publish_at(*net, 0.0);
  net->run_until(150.0);  // The copy is on the wire 1 -> 2 over (102, 202].
  net->set_broker_state(1, false);
  net->run_until(160.0);
  net->set_broker_state(1, true);
  net->run_until(201.0);
  // Nothing was queued at the crash: the frame dies when it completes.
  EXPECT_EQ(net->stats().lost(), 0u);
  EXPECT_EQ(net->outstanding(), 1u);
  net->run_until(202.5);
  EXPECT_EQ(net->stats().lost(), 1u);
  EXPECT_EQ(net->outstanding(), 0u);
  EXPECT_EQ(net->stats().receptions(), 2u);

  // The restarted broker's link is free again: the next copy crosses it.
  LineRig::publish_at(*net, 300.0);
  net->run_until(kNoDeadline);
  net->stop();
  EXPECT_EQ(net->stats().deliveries().size(), 2u);
  EXPECT_EQ(net->stats().lost(), 1u);
}

TEST(LiveVirtualFaults, LinkDownDeliversTheFrameOnTheWireAndHoldsTheQueue) {
  const LineRig rig;
  auto net = rig.start();
  // Three messages: the first is on the wire 0 -> 1 over (1, 101], the
  // other two queue behind it.
  for (const TimeMs at : {0.0, 1.0, 2.0}) LineRig::publish_at(*net, at);
  net->run_until(50.0);
  net->set_link_state(0, 1, false);
  net->run_until(400.0);
  // The frame completed and went on to both subscribers; the rest held.
  EXPECT_EQ(net->stats().deliveries().size(), 2u);
  EXPECT_EQ(net->outstanding(), 2u);
  EXPECT_EQ(net->stats().lost(), 0u);
  EXPECT_EQ(net->stats().purged(), 0u);

  net->set_link_state(0, 1, true);
  net->run_until(kNoDeadline);
  net->stop();
  EXPECT_EQ(net->stats().deliveries().size(), 6u);
  EXPECT_EQ(net->stats().valid_deliveries(), 6u);
  EXPECT_EQ(net->stats().lost(), 0u);
  EXPECT_EQ(net->outstanding(), 0u);
}

}  // namespace
}  // namespace bdps
