#include "runtime/live_network.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace bdps {
namespace {

/// Small rig running at 200x real time: a line 0 - 1 - 2 with fast links so
/// tests finish in tens of real milliseconds.
struct LiveRig {
  Topology topo;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> scheduler;

  explicit LiveRig(TimeMs deadline = seconds(30.0),
                   StrategyKind strategy = StrategyKind::kEb) {
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
      sub.allowed_delay = deadline;
      sub.price = 2.0;
      subs.push_back(sub);
    }
    fabric = std::make_unique<RoutingFabric>(topo, std::move(subs));
    scheduler = make_strategy(strategy);
  }

  LiveOptions options(LiveMode mode) const {
    LiveOptions opt;
    opt.processing_delay = 1.0;
    opt.speedup = 200.0;
    opt.mode = mode;
    opt.workers = 2;  // Exercise cross-worker handoff even on a 3-line.
    return opt;
  }

  static Message message_template(TimeMs deadline = kNoDeadline) {
    return Message(0, 0, 0.0, 50.0, {{"A1", Value(1.0)}}, deadline);
  }
};

/// Every behavioural test runs in both modes: the reactor is the
/// in-process engine, and single-shard socket mode must behave
/// identically with the trunk endpoint idling in the loop (every broker
/// local, no peers — the degenerate cluster).
class LiveNetworkModes : public ::testing::TestWithParam<LiveMode> {};

INSTANTIATE_TEST_SUITE_P(BothModes, LiveNetworkModes,
                         ::testing::Values(LiveMode::kReactor,
                                           LiveMode::kSocket),
                         [](const auto& info) {
                           return info.param == LiveMode::kReactor
                                      ? "Reactor"
                                      : "Socket";
                         });

TEST_P(LiveNetworkModes, DeliversPublishedMessagesToAllSubscribers) {
  LiveRig rig;
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.scheduler.get(),
                  rig.options(GetParam()));
  net.start();
  for (int i = 0; i < 5; ++i) {
    net.publish(0, LiveRig::message_template());
  }
  net.drain();
  net.stop();

  // 5 messages x 2 subscribers.
  EXPECT_EQ(net.stats().deliveries().size(), 10u);
  EXPECT_EQ(net.stats().valid_deliveries(), 10u);
  EXPECT_DOUBLE_EQ(net.stats().earning(), 20.0);
  // Each message was received by 3 brokers.
  EXPECT_EQ(net.stats().receptions(), 15u);
}

TEST_P(LiveNetworkModes, DeliveryDelaysAreMeasuredOnTheScaledClock) {
  LiveRig rig;
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.scheduler.get(),
                  rig.options(GetParam()));
  net.start();
  net.publish(0, LiveRig::message_template());
  net.drain();
  // Every delivery happened between the publish (at or after scaled time
  // 0) and this reading of the same scaled clock, however loaded the host.
  const TimeMs drained_at = net.clock().now();
  net.stop();

  ASSERT_EQ(net.stats().deliveries().size(), 2u);
  for (const LiveDelivery& d : net.stats().deliveries()) {
    // Two ~100 ms (sim) transmissions + processing: the delay must be in
    // simulated milliseconds, not wall-clock units.
    EXPECT_GT(d.delay, 100.0);
    EXPECT_LE(d.delay, drained_at);
    EXPECT_TRUE(d.valid);
  }
}

TEST_P(LiveNetworkModes, ExpiredDeadlinesAreRecordedInvalid) {
  // 1 ms allowed delay cannot be met (each hop takes ~100 simulated ms),
  // but with purging disabled the copies still travel and deliver late.
  LiveRig rig(/*deadline=*/1.0);
  LiveOptions opt = rig.options(GetParam());
  opt.purge.epsilon = 0.0;
  opt.purge.drop_expired = false;
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.scheduler.get(), opt);
  net.start();
  net.publish(0, LiveRig::message_template());
  net.drain();
  net.stop();
  EXPECT_EQ(net.stats().deliveries().size(), 2u);
  EXPECT_EQ(net.stats().valid_deliveries(), 0u);
  EXPECT_DOUBLE_EQ(net.stats().earning(), 0.0);
}

TEST_P(LiveNetworkModes, PurgeDropsHopelessTraffic) {
  LiveRig rig(/*deadline=*/1.0);  // Paper-style purge enabled by default.
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.scheduler.get(),
                  rig.options(GetParam()));
  net.start();
  for (int i = 0; i < 3; ++i) net.publish(0, LiveRig::message_template());
  net.drain();
  net.stop();
  EXPECT_EQ(net.stats().deliveries().size(), 0u);
  EXPECT_EQ(net.stats().purged(), 3u);
}

TEST_P(LiveNetworkModes, StopIsIdempotentAndDestructorSafe) {
  LiveRig rig;
  {
    LiveNetwork net(&rig.topo, rig.fabric.get(), rig.scheduler.get(),
                    rig.options(GetParam()));
    net.start();
    net.publish(0, LiveRig::message_template());
    net.drain();
    net.stop();
    net.stop();  // Second stop must be a no-op.
  }                // Destructor runs after explicit stop.
  SUCCEED();
}

TEST_P(LiveNetworkModes, PublishRacingStopNeverStrandsCopies) {
  // Hammer publish from another thread while stop() runs.  Every accepted
  // copy must be fully processed (or dropped with its accounting unwound)
  // before stop returns: a reactor worker may not exit with its injector
  // open.  A stranded copy shows up as drain() hanging.
  LiveRig rig;
  for (int round = 0; round < 10; ++round) {
    LiveNetwork net(&rig.topo, rig.fabric.get(), rig.scheduler.get(),
                    rig.options(GetParam()));
    net.start();
    std::atomic<bool> go{false};
    // Joins on unwind too, so a stop() that throws fails this test
    // instead of ending the whole binary.
    std::jthread publisher([&] {
      while (!go.load()) {
      }
      for (int i = 0; i < 30; ++i) {
        net.publish(0, LiveRig::message_template());
      }
    });
    go.store(true);
    net.stop();
    publisher.join();
    net.drain();  // Must return: no copy may outlive stop().
  }
  SUCCEED();
}

TEST_P(LiveNetworkModes, ManyConcurrentPublishesAllAccountedFor) {
  LiveRig rig;
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.scheduler.get(),
                  rig.options(GetParam()));
  net.start();
  constexpr int kMessages = 40;
  for (int i = 0; i < kMessages; ++i) {
    net.publish(0, LiveRig::message_template());
  }
  net.drain();
  net.stop();
  // Conservation: every copy was delivered (x2 subscribers) or purged.
  const std::size_t delivered_messages = net.stats().deliveries().size() / 2;
  EXPECT_EQ(delivered_messages + net.stats().purged(),
            static_cast<std::size_t>(kMessages));
}

TEST(LiveNetwork, ReactorIsTheDefaultModeAndSizesItsPool) {
  LiveRig rig;
  LiveOptions opt;
  opt.speedup = 200.0;
  ASSERT_EQ(opt.mode, LiveMode::kReactor);
  opt.workers = 2;
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.scheduler.get(), opt);
  EXPECT_EQ(net.worker_count(), 2u);
  EXPECT_EQ(net.link_count(), 2u);  // 0->1 and 1->2 carry subscriptions.
  net.start();
  net.publish(0, LiveRig::message_template());
  net.drain();
  net.stop();
  EXPECT_EQ(net.stats().deliveries().size(), 2u);
}

TEST(LiveNetwork, ReactorWorkerKnobClampsToBrokerCount) {
  LiveRig rig;
  LiveOptions opt;
  opt.speedup = 200.0;
  opt.workers = 64;  // Far more than the 3 brokers.
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.scheduler.get(), opt);
  EXPECT_LE(net.worker_count(), 3u);
  net.start();
  net.publish(0, LiveRig::message_template());
  net.drain();
  net.stop();
  EXPECT_EQ(net.stats().valid_deliveries(), 2u);
}

TEST(LiveClock, ScalesAndSleeps) {
  LiveClock clock(100.0);
  clock.start();
  clock.sleep_for(200.0);  // 200 simulated ms = 2 real ms.
  const TimeMs now = clock.now();
  EXPECT_GE(now, 200.0);
  EXPECT_LT(now, 20000.0);  // Generous upper bound for slow CI machines.
}

TEST(LiveClock, MapsSimulatedInstantsBackToRealOnes) {
  LiveClock clock(50.0);
  clock.start();
  // 500 simulated ms = 10 real ms after start.
  const auto at = clock.real_time_at(500.0);
  const auto base = clock.real_time_at(0.0);
  const double real_ms =
      std::chrono::duration<double, std::milli>(at - base).count();
  EXPECT_NEAR(real_ms, 10.0, 1e-6);
}

}  // namespace
}  // namespace bdps
