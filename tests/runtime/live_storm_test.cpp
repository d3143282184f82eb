// Link churn in the live runtime: down links hold, link-up releases, and
// the same storm yields the same delivery set in both execution modes
// (reactor, and single-shard socket — the same Tx teardown with the trunk
// endpoint in the loop).  Timing may differ — the *delivery multiset*
// must not, and with recovery before drain and purging off it must equal
// the full (message x subscriber) product in either mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/live_network.h"
#include "sim/faults/plan.h"
#include "sim/faults/timeline.h"

namespace bdps {
namespace {

/// Line 0 - 1 - 2 at 200x real time, two subscribers at the far end.
struct StormRig {
  Topology topo;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> scheduler = make_strategy(StrategyKind::kEb);

  StormRig() {
    topo.graph.resize(3);
    topo.graph.add_bidirectional(0, 1, LinkParams{2.0, 0.2});
    topo.graph.add_bidirectional(1, 2, LinkParams{2.0, 0.2});
    topo.publisher_edges = {0};
    topo.subscriber_homes = {2, 2};
    std::vector<Subscription> subs;
    for (int s = 0; s < 2; ++s) {
      Subscription sub;
      sub.subscriber = s;
      sub.home = 2;
      sub.allowed_delay = minutes(5.0);
      sub.price = 2.0;
      subs.push_back(sub);
    }
    fabric = std::make_unique<RoutingFabric>(topo, std::move(subs));
  }

  LiveOptions options(LiveMode mode) const {
    LiveOptions opt;
    opt.processing_delay = 1.0;
    opt.speedup = 200.0;
    opt.mode = mode;
    opt.workers = 2;
    return opt;
  }

  static Message message_template() {
    return Message(0, 0, 0.0, 50.0, {{"A1", Value(1.0)}});
  }
};

class LiveStormModes : public ::testing::TestWithParam<LiveMode> {};

INSTANTIATE_TEST_SUITE_P(BothModes, LiveStormModes,
                         ::testing::Values(LiveMode::kReactor,
                                           LiveMode::kSocket),
                         [](const auto& info) {
                           return info.param == LiveMode::kReactor
                                      ? "Reactor"
                                      : "Socket";
                         });

TEST_P(LiveStormModes, DownLinkHoldsUntilLinkUpReleases) {
  StormRig rig;
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.scheduler.get(),
                  rig.options(GetParam()));
  net.start();
  net.set_link_state(1, 2, /*up=*/false);

  for (int i = 0; i < 5; ++i) {
    net.publish(0, StormRig::message_template());
  }
  // Transit is ~1 real ms end to end; 100 ms is ample proof the copies are
  // held at broker 1, not merely slow.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(net.stats().deliveries().size(), 0u);
  EXPECT_EQ(net.stats().purged(), 0u);

  net.set_link_state(1, 2, /*up=*/true);
  net.drain();
  net.stop();

  EXPECT_EQ(net.stats().deliveries().size(), 10u);
  EXPECT_EQ(net.stats().valid_deliveries(), 10u);
}

TEST_P(LiveStormModes, ChurnWhileTransmittingLosesNothing) {
  StormRig rig;
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.scheduler.get(),
                  rig.options(GetParam()));
  net.start();

  // Rapid flapping racing live traffic: whatever instant the down lands —
  // queue idle, pick pending, frame mid-wire (a down never cuts it; the
  // queue holds behind it) — every copy must survive to delivery once the
  // link settles up.
  for (int round = 0; round < 10; ++round) {
    net.publish(0, StormRig::message_template());
    net.set_link_state(1, 2, /*up=*/false);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    net.set_link_state(1, 2, /*up=*/true);
    net.publish(0, StormRig::message_template());
  }
  net.drain();
  net.stop();

  EXPECT_EQ(net.stats().deliveries().size(), 40u);  // 20 messages x 2 subs.
  EXPECT_EQ(net.stats().purged(), 0u);
}

/// Ring overlay with subscribers everywhere, driven through a compiled
/// fault timeline exactly the way run_live replays one.
struct RingStormRig {
  Topology topo;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> scheduler =
      make_strategy(StrategyKind::kEbpc);

  explicit RingStormRig(std::size_t brokers = 5) {
    topo.graph.resize(brokers);
    for (std::size_t b = 0; b < brokers; ++b) {
      topo.graph.add_bidirectional(static_cast<BrokerId>(b),
                                   static_cast<BrokerId>((b + 1) % brokers),
                                   LinkParams{2.0, 0.2});
    }
    topo.publisher_edges = {0, 2};
    std::vector<Subscription> subs;
    for (std::size_t b = 0; b < brokers; ++b) {
      topo.subscriber_homes.push_back(static_cast<BrokerId>(b));
      Subscription sub;
      sub.subscriber = static_cast<SubscriberId>(b);
      sub.home = static_cast<BrokerId>(b);
      sub.allowed_delay = minutes(5.0);
      sub.price = 1.0;
      subs.push_back(sub);
    }
    fabric = std::make_unique<RoutingFabric>(topo, std::move(subs));
  }
};

std::vector<std::pair<SubscriberId, MessageId>> run_storm(
    const RingStormRig& rig, LiveMode mode,
    const CompiledFaults& faults) {
  LiveOptions options;
  options.processing_delay = 1.0;
  options.speedup = 500.0;
  options.seed = 11;
  options.mode = mode;
  options.workers = 2;

  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.scheduler.get(), options);
  net.start();

  std::size_t cursor = 0;
  const auto apply_until = [&](TimeMs upto) {
    while (cursor < faults.batches().size() &&
           faults.batches()[cursor].at <= upto) {
      const FaultBatch& batch = faults.batches()[cursor++];
      const TimeMs ahead = batch.at - net.clock().now();
      if (ahead > 0.0) net.clock().sleep_for(ahead);
      for (const EdgeId e : batch.edges_down) net.set_edge_state(e, false);
      for (const EdgeId e : batch.edges_up) net.set_edge_state(e, true);
    }
  };

  // 30 messages, 25 simulated ms apart, alternating publishers — the storm
  // windows below land mid-stream.
  for (int i = 0; i < 30; ++i) {
    const TimeMs at = 25.0 * static_cast<double>(i);
    apply_until(at);
    const TimeMs ahead = at - net.clock().now();
    if (ahead > 0.0) net.clock().sleep_for(ahead);
    net.publish(static_cast<PublisherId>(i % 2),
                Message(0, 0, 0.0, 40.0, {{"A1", Value(1.0)}}));
  }
  apply_until(kNoDeadline);
  net.drain();
  net.stop();

  std::vector<std::pair<SubscriberId, MessageId>> delivered;
  for (const LiveDelivery& d : net.stats().deliveries()) {
    delivered.emplace_back(d.subscriber, d.message);
  }
  std::sort(delivered.begin(), delivered.end());
  return delivered;
}

TEST(LiveStormEquivalence, DeliverySetsMatchAcrossModes) {
  const RingStormRig rig;

  FaultPlan plan;
  // Two overlapping outages plus a flap: every link of the ring keeps at
  // least one live detour, and everything recovers well inside the run.
  plan.link_outages.push_back(LinkOutage{100.0, 320.0, 1, 2});
  plan.link_outages.push_back(LinkOutage{250.0, 480.0, 3, 4});
  plan.flaps.push_back(LinkFlap{0, 1, 150.0, 120.0, 40.0, 3});
  Rng rng(5);
  const FaultPlan normalized =
      materialize_faults(plan, rig.topo.graph, rng);
  const CompiledFaults faults =
      CompiledFaults::compile(normalized, rig.topo.graph);
  ASSERT_FALSE(faults.batches().empty());

  const auto reactor = run_storm(rig, LiveMode::kReactor, faults);
  const auto socket = run_storm(rig, LiveMode::kSocket, faults);

  // With recovery before drain and purging off, nothing may be lost: both
  // modes deliver the full message x subscriber product — and therefore
  // the exact same multiset.
  EXPECT_EQ(reactor.size(), 30u * 5u);
  EXPECT_EQ(reactor, socket);
}

}  // namespace
}  // namespace bdps
