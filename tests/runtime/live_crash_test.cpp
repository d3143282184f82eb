// Broker-crash parity with the simulator's fault semantics, pinned with
// controlled timing (crash losses are inherently schedule-dependent, so
// these tests engineer the schedule instead of comparing multisets):
//
//   * crash wipes the broker's input queue and every outgoing OutputQueue
//     — each wiped copy is a loss, and the overlay still drains;
//   * a copy whose transmission completes toward a down broker arrives
//     as a reception and a loss (the sender does not stall);
//   * restart brings the broker back with empty queues and full routing
//     (static configuration survives, exactly like sim/faults).
//
// Runs in both modes: the reactor, and single-shard socket mode (the
// degenerate cluster — same engine with the trunk endpoint idling).  The
// cross-shard variant (a crash behind a trunk) rides in
// tests/net via the storm configs; here the timing must be exact.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "runtime/live_network.h"

namespace bdps {
namespace {

/// Line 0 - 1 - 2 with both subscribers homed at broker 2, so every copy
/// must pass through broker 1 — the crash target.
struct CrashRig {
  Topology topo;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> strategy;

  CrashRig() {
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
      sub.allowed_delay = kNoDeadline;
      sub.price = 2.0;
      subs.push_back(sub);
    }
    fabric = std::make_unique<RoutingFabric>(topo, std::move(subs));
    strategy = make_strategy(StrategyKind::kEb);
  }

  LiveOptions options(LiveMode mode) const {
    LiveOptions opt;
    opt.processing_delay = 1.0;
    opt.speedup = 200.0;
    opt.mode = mode;
    opt.workers = 2;
    return opt;
  }

  static Message message() {
    return Message(0, 0, 0.0, 50.0, {{"A1", Value(1.0)}}, kNoDeadline);
  }
};

/// Spin until `stats.receptions()` reaches `want` (generous deadline —
/// the copies are in flight on a 200x clock).
void wait_receptions(const LiveStats& stats, std::size_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (stats.receptions() < want &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(stats.receptions(), want);
}

class LiveCrashModes : public ::testing::TestWithParam<LiveMode> {};

INSTANTIATE_TEST_SUITE_P(BothModes, LiveCrashModes,
                         ::testing::Values(LiveMode::kReactor,
                                           LiveMode::kSocket),
                         [](const auto& info) {
                           return info.param == LiveMode::kReactor
                                      ? "Reactor"
                                      : "Socket";
                         });

TEST_P(LiveCrashModes, CrashWipesQueuedCopiesAsLosses) {
  CrashRig rig;
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.strategy.get(),
                  rig.options(GetParam()));
  net.start();
  // Hold the downstream link so copies pile up in broker 1's output
  // queue, then publish and wait until every copy has arrived there.
  net.set_link_state(1, 2, false);
  constexpr std::size_t kMessages = 5;
  for (std::size_t i = 0; i < kMessages; ++i) {
    net.publish(0, CrashRig::message());
  }
  wait_receptions(net.stats(), 2 * kMessages);  // Broker 0 + broker 1.

  // Crash the relay: its queued copies (held toward 1->2, or still in PD
  // processing) are wiped as losses, which is exactly what lets drain()
  // return even though the held link never came back while they existed.
  net.set_broker_state(1, false);
  net.drain();
  net.set_link_state(1, 2, true);
  net.set_broker_state(1, true);
  net.stop();

  EXPECT_EQ(net.stats().deliveries().size(), 0u);
  EXPECT_EQ(net.stats().lost(), kMessages);
  EXPECT_EQ(net.stats().purged(), 0u);
}

TEST_P(LiveCrashModes, DepositAtDownBrokerIsALoss) {
  CrashRig rig;
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.strategy.get(),
                  rig.options(GetParam()));
  net.start();
  net.set_broker_state(1, false);  // Crash before any traffic.
  constexpr std::size_t kMessages = 3;
  for (std::size_t i = 0; i < kMessages; ++i) {
    net.publish(0, CrashRig::message());
  }
  // The sender at broker 0 must not stall: each transmission completes
  // and deposits at the dead broker as a loss, so drain() returns.
  net.drain();
  net.set_broker_state(1, true);
  net.stop();

  EXPECT_EQ(net.stats().deliveries().size(), 0u);
  EXPECT_EQ(net.stats().lost(), kMessages);
  // Broker 0 received the messages, and each copy reached the dead relay:
  // a reception is counted on arrival, and that one is also the loss.
  EXPECT_EQ(net.stats().receptions(), 2 * kMessages);
}

TEST_P(LiveCrashModes, RestartRestoresServiceWithEmptyQueues) {
  CrashRig rig;
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.strategy.get(),
                  rig.options(GetParam()));
  net.start();
  net.set_broker_state(1, false);
  net.publish(0, CrashRig::message());
  net.publish(0, CrashRig::message());
  net.drain();  // Both lost at the dead relay.
  ASSERT_EQ(net.stats().lost(), 2u);

  // Restart: routing is static configuration, so traffic flows again
  // end-to-end; the crash-era losses stay lost (no replay).
  net.set_broker_state(1, true);
  for (int i = 0; i < 3; ++i) net.publish(0, CrashRig::message());
  net.drain();
  net.stop();

  EXPECT_EQ(net.stats().deliveries().size(), 3u * 2u);
  EXPECT_EQ(net.stats().valid_deliveries(), 6u);
  EXPECT_EQ(net.stats().lost(), 2u);
}

TEST_P(LiveCrashModes, CrashOfALeafBrokerDropsOnlyItsSubscribers) {
  // Subscribers live at broker 2; crashing it loses the deliveries but
  // upstream brokers keep functioning (receptions at 0 and 1 continue, and
  // each copy's arrival at the dead broker counts too).
  CrashRig rig;
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.strategy.get(),
                  rig.options(GetParam()));
  net.start();
  net.set_broker_state(2, false);
  constexpr std::size_t kMessages = 4;
  for (std::size_t i = 0; i < kMessages; ++i) {
    net.publish(0, CrashRig::message());
  }
  net.drain();
  net.set_broker_state(2, true);
  net.stop();

  EXPECT_EQ(net.stats().deliveries().size(), 0u);
  EXPECT_EQ(net.stats().lost(), kMessages);
  EXPECT_EQ(net.stats().receptions(), 3 * kMessages);
}

}  // namespace
}  // namespace bdps
