// Failure-injection semantics: dead links lose in-flight and queued
// copies, single-path routing cannot recover, multi-path redundancy can.
// Kills compile into the fault timeline and apply as fault batches.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "experiment/paper.h"
#include "experiment/runner.h"
#include "routing/fabric.h"
#include "sim/simulator.h"

namespace bdps {
namespace {

using Messages = std::vector<std::shared_ptr<const Message>>;

/// `kills` compiled into `options`, run through Simulator.
Collector run_with_kills(const Topology& topo, const RoutingFabric& fabric,
                         const Strategy& strategy, SimulatorOptions options,
                         const std::vector<LinkFailure>& kills,
                         const Messages& messages) {
  options.faults = std::make_shared<const CompiledFaults>(
      CompiledFaults::compile({}, topo.graph, kills));
  Simulator sim(&topo, &topo.graph, &fabric, &strategy, options, Rng(1));
  for (const auto& message : messages) sim.schedule_publish(message);
  sim.run();
  return sim.collector();
}

/// Line 0 - 1 - 2 (zero variance), one subscriber at 2, like
/// simulator_test's rig but with link kills.
struct FailLineRig {
  Topology topo;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> scheduler;
  SimulatorOptions options;

  FailLineRig() {
    topo.graph.resize(3);
    topo.graph.add_bidirectional(0, 1, LinkParams{100.0, 0.0});
    topo.graph.add_bidirectional(1, 2, LinkParams{100.0, 0.0});
    topo.publisher_edges = {0};
    topo.subscriber_homes = {2};
    Subscription sub;
    sub.subscriber = 0;
    sub.home = 2;
    sub.allowed_delay = seconds(60.0);
    fabric = std::make_unique<RoutingFabric>(topo,
                                             std::vector<Subscription>{sub});
    scheduler = make_strategy(StrategyKind::kFifo);
    options.processing_delay = 2.0;
  }

  Collector run(const std::vector<LinkFailure>& kills,
                const Messages& messages) const {
    return run_with_kills(topo, *fabric, *scheduler, options, kills,
                          messages);
  }

  static std::shared_ptr<const Message> message(MessageId id, TimeMs when) {
    return std::make_shared<Message>(id, 0, when, 50.0,
                                     std::vector<Attribute>{});
  }
};

TEST(FailureInjection, InFlightSendIsLost) {
  FailLineRig rig;
  // The 0->1 send runs 2..5002 ms; kill the link at 3000 ms.
  const Collector c =
      rig.run({LinkFailure{3000.0, 0, 1}}, {FailLineRig::message(0, 0.0)});
  EXPECT_EQ(c.deliveries(), 0u);
  EXPECT_EQ(c.receptions(), 1u);  // Injection only; B1 never receives.
  EXPECT_EQ(c.lost_copies(), 1u);
}

TEST(FailureInjection, QueuedCopiesAreLostToo) {
  FailLineRig rig;
  // Three back-to-back messages: one in flight, two queued when the link
  // dies.
  Messages messages;
  for (MessageId i = 0; i < 3; ++i) {
    messages.push_back(FailLineRig::message(i, 0.0));
  }
  const Collector c = rig.run({LinkFailure{3000.0, 0, 1}}, messages);
  EXPECT_EQ(c.deliveries(), 0u);
  EXPECT_EQ(c.lost_copies(), 3u);
}

TEST(FailureInjection, MessagesBeforeTheFailureSurvive) {
  FailLineRig rig;
  // First message fully crosses 0->1 by 5002 ms; the failure at 6000 ms
  // only kills that first hop — the copy is already past it.
  const Collector c = rig.run(
      {LinkFailure{6000.0, 0, 1}},
      {FailLineRig::message(0, 0.0), FailLineRig::message(1, 5500.0)});
  EXPECT_EQ(c.valid_deliveries(), 1u);  // Message 0 delivered.
  EXPECT_EQ(c.lost_copies(), 1u);       // Message 1 died at broker 0.
}

TEST(FailureInjection, FailuresAfterTheRunChangeNothing) {
  FailLineRig rig;
  const Collector c = rig.run({LinkFailure{seconds(3600.0), 0, 1}},
                              {FailLineRig::message(0, 0.0)});
  EXPECT_EQ(c.valid_deliveries(), 1u);
  EXPECT_EQ(c.lost_copies(), 0u);
}

TEST(FailureInjection, MultipathSurvivesSingleBranchFailure) {
  // Diamond 0 -> {1, 2} -> 3: kill the primary branch before publishing.
  Topology topo;
  topo.graph.resize(4);
  topo.graph.add_bidirectional(0, 1, LinkParams{50.0, 0.0});
  topo.graph.add_bidirectional(0, 2, LinkParams{60.0, 0.0});
  topo.graph.add_bidirectional(1, 3, LinkParams{50.0, 0.0});
  topo.graph.add_bidirectional(2, 3, LinkParams{60.0, 0.0});
  topo.publisher_edges = {0};
  topo.subscriber_homes = {3};
  Subscription sub;
  sub.subscriber = 0;
  sub.home = 3;
  sub.allowed_delay = seconds(60.0);

  for (const bool multipath : {false, true}) {
    FabricOptions fabric_options;
    fabric_options.multipath = multipath;
    RoutingFabric fabric(topo, {sub}, fabric_options);
    const auto scheduler = make_strategy(StrategyKind::kEb);
    SimulatorOptions options;
    options.processing_delay = 2.0;
    options.dedup_arrivals = multipath;
    const Collector c = run_with_kills(
        topo, fabric, *scheduler, options,
        {LinkFailure{1.0, 0, 1}},  // Primary branch dies.
        {std::make_shared<Message>(0, 0, 100.0, 50.0,
                                   std::vector<Attribute>{})});
    if (multipath) {
      EXPECT_EQ(c.valid_deliveries(), 1u) << "redundant branch must deliver";
    } else {
      EXPECT_EQ(c.valid_deliveries(), 0u) << "single path has no recovery";
      EXPECT_EQ(c.lost_copies(), 1u);
    }
  }
}

TEST(FailureInjection, RandomFailuresThroughRunnerAreDeterministic) {
  SimConfig config = paper_base_config(ScenarioKind::kPsd, 6.0,
                                       StrategyKind::kEb, 17);
  config.workload.duration = minutes(8.0);
  config.random_link_failures = 4;
  const SimResult a = run_simulation(config);
  const SimResult b = run_simulation(config);
  EXPECT_EQ(a.lost_copies, b.lost_copies);
  EXPECT_EQ(a.valid_deliveries, b.valid_deliveries);
}

TEST(FailureInjection, FailuresReduceDeliveryRate) {
  SimConfig healthy = paper_base_config(ScenarioKind::kPsd, 6.0,
                                        StrategyKind::kEb, 21);
  healthy.workload.duration = minutes(10.0);
  SimConfig broken = healthy;
  broken.random_link_failures = 8;
  const SimResult a = run_simulation(healthy);
  const SimResult b = run_simulation(broken);
  EXPECT_EQ(a.lost_copies, 0u);
  EXPECT_GT(b.lost_copies, 0u);
  EXPECT_LT(b.delivery_rate, a.delivery_rate);
}

TEST(FailureInjection, MultipathCushionsRandomFailures) {
  // With failures, redundancy should recover some deliveries relative to
  // single-path under the *same* failure plan.
  SimConfig single = paper_base_config(ScenarioKind::kPsd, 4.0,
                                       StrategyKind::kEb, 33);
  single.workload.duration = minutes(10.0);
  single.random_link_failures = 6;
  SimConfig multi = single;
  multi.multipath = true;
  const SimResult s = run_simulation(single);
  const SimResult m = run_simulation(multi);
  EXPECT_GT(m.delivery_rate, s.delivery_rate);
}

}  // namespace
}  // namespace bdps
