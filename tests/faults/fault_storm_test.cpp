// Fault-storm simulator behavior and bitwise replay.
//
// Three layers:
//   * Semantics on hand-built overlays where every instant is known: a
//     down link *holds* copies until recovery (unlike a terminal link kill,
//     which drains them as losses for good), a crashed broker drops its
//     queues as losses, and a flap strictly inside a transfer dooms the
//     in-flight copy.
//   * Incremental SPT repair: with options.repair_fabric the overlay
//     routes around an outage it would otherwise wait out forever.
//   * Bitwise replay: storm configs through run_simulation, and the trace
//     stream of a hand rig under storms, repair and kills, each run twice
//     with identical results.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "../sim/replay_rig.h"
#include "sim/faults/plan.h"

namespace bdps {
namespace {

using replay::expect_same_result;

std::shared_ptr<const CompiledFaults> compile_plan(
    const FaultPlan& plan, const Graph& graph,
    const std::vector<LinkFailure>& kills = {}, std::uint64_t seed = 7) {
  Rng rng(seed);
  const FaultPlan normalized = materialize_faults(plan, graph, rng);
  return std::make_shared<const CompiledFaults>(
      CompiledFaults::compile(normalized, graph, kills));
}

/// Chain 0-1-...-(n-1) with deterministic links (stddev 0), one publisher
/// at broker 0 and one wildcard subscriber at the far end.
struct ChainRig {
  Topology topo;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> strategy = make_strategy(StrategyKind::kEbpc);

  explicit ChainRig(std::size_t brokers, double mean_ms_per_kb = 10.0,
                    bool repairable = false) {
    topo.graph.resize(brokers);
    for (std::size_t b = 0; b + 1 < brokers; ++b) {
      topo.graph.add_bidirectional(static_cast<BrokerId>(b),
                                   static_cast<BrokerId>(b + 1),
                                   LinkParams{mean_ms_per_kb, 0.0});
    }
    topo.publisher_edges = {0};
    topo.subscriber_homes = {static_cast<BrokerId>(brokers - 1)};
    Subscription sub;
    sub.subscriber = 0;
    sub.home = static_cast<BrokerId>(brokers - 1);
    sub.allowed_delay = minutes(2.0);
    sub.price = 2.0;
    FabricOptions fabric_options;
    fabric_options.repairable = repairable;
    fabric = std::make_unique<RoutingFabric>(
        topo, std::vector<Subscription>{sub}, fabric_options);
  }

  std::vector<std::shared_ptr<const Message>> make_messages(
      std::size_t count, TimeMs first_at = 100.0,
      TimeMs spacing = 100.0, double size_kb = 10.0) const {
    std::vector<std::shared_ptr<const Message>> messages;
    for (std::size_t i = 0; i < count; ++i) {
      messages.push_back(std::make_shared<Message>(
          static_cast<MessageId>(i), 0,
          first_at + spacing * static_cast<double>(i), size_kb,
          std::vector<Attribute>{}));
    }
    return messages;
  }
};

void run_with(Simulator& sim,
              std::vector<std::shared_ptr<const Message>> messages) {
  for (auto& message : messages) sim.schedule_publish(std::move(message));
  sim.run();
}

/// The rig's run under `options`, returning the collector.
Collector run_chain(const ChainRig& rig, const SimulatorOptions& options,
                    std::vector<std::shared_ptr<const Message>> messages) {
  Simulator sim(&rig.topo, &rig.topo.graph, rig.fabric.get(),
                rig.strategy.get(), options, Rng(1));
  run_with(sim, std::move(messages));
  return sim.collector();
}

// A down link holds its queued copies and delivers them all after the
// recovery kick; a never-recovering outage strands them without loss.
TEST(FaultStorm, HoldAndRecoverDeliversEverything) {
  FaultPlan plan;
  plan.link_outages.push_back(LinkOutage{0.0, 5000.0, 1, 2});

  ChainRig rig(3);
  SimulatorOptions options;
  options.faults = compile_plan(plan, rig.topo.graph);
  Simulator sim(&rig.topo, &rig.topo.graph, rig.fabric.get(),
                rig.strategy.get(), options, Rng(3));
  run_with(sim, rig.make_messages(3));

  // Copies pile up at broker 1 until the recovery batch at t=5000 kicks
  // the link; with a generous allowed delay every delivery is still valid.
  EXPECT_EQ(sim.collector().deliveries(), 3u);
  EXPECT_EQ(sim.collector().valid_deliveries(), 3u);
  EXPECT_EQ(sim.collector().lost_copies(), 0u);
  EXPECT_GT(sim.now(), 5000.0);
}

TEST(FaultStorm, UnrecoveredOutageStrandsWithoutLoss) {
  FaultPlan plan;
  plan.link_outages.push_back(LinkOutage{0.0, kNoDeadline, 1, 2});

  ChainRig rig(3);
  SimulatorOptions options;
  options.faults = compile_plan(plan, rig.topo.graph);
  Simulator sim(&rig.topo, &rig.topo.graph, rig.fabric.get(),
                rig.strategy.get(), options, Rng(3));
  run_with(sim, rig.make_messages(3));

  // Held is not lost: the copies sit in broker 1's output queue when the
  // event queue drains.  A kill would have counted three losses here
  // (KillDrainsAsLosses).
  EXPECT_EQ(sim.collector().deliveries(), 0u);
  EXPECT_EQ(sim.collector().lost_copies(), 0u);
}

// The kill mirror of the test above: the same three copies reach broker 1
// and are dropped as losses instead of held.
TEST(FaultStorm, KillDrainsAsLosses) {
  ChainRig rig(3);
  SimulatorOptions options;
  options.faults = compile_plan({}, rig.topo.graph, {LinkFailure{0.0, 1, 2}});
  const Collector c = run_chain(rig, options, rig.make_messages(3));

  EXPECT_EQ(c.deliveries(), 0u);
  EXPECT_EQ(c.lost_copies(), 3u);
  EXPECT_EQ(c.fault_batches(), 1u);
}

// A kill inside an outage window drains the copies the window held, and
// the window's later recovery does not revive the link.
TEST(FaultStorm, KillInsideAnOutageDrainsTheHeldCopiesForGood) {
  FaultPlan plan;
  plan.link_outages.push_back(LinkOutage{0.0, 5000.0, 1, 2});

  ChainRig rig(3);
  SimulatorOptions options;
  options.faults =
      compile_plan(plan, rig.topo.graph, {LinkFailure{2000.0, 1, 2}});
  // Down at 0, killed at 2000; the recovery at 5000 left the timeline.
  ASSERT_EQ(options.faults->batches().size(), 2u);
  EXPECT_EQ(options.faults->batches()[1].at, 2000.0);
  EXPECT_TRUE(options.faults->batches()[1].edges_up.empty());

  // Copies reach broker 1 at ~200, ~1700 (held, then drained by the kill),
  // ~3200, ~4700 (drained on arrival) and ~6200, after the old recovery
  // instant: every one is lost.
  const Collector c = run_chain(
      rig, options,
      rig.make_messages(5, /*first_at=*/100.0, /*spacing=*/1500.0));
  EXPECT_EQ(c.deliveries(), 0u);
  EXPECT_EQ(c.lost_copies(), 5u);
  EXPECT_EQ(c.fault_batches(), 2u);
}

// Same-instant rule: a link that recovers at the exact instant it is
// killed is killed, then not kicked.  Its held copies are all lost at that
// instant; none starts a send (to be lost at completion) or is purged by a
// kick's pick.
TEST(FaultStorm, KillAtTheRecoveryInstantDrainsWithoutAKick) {
  FaultPlan plan;
  plan.link_outages.push_back(LinkOutage{0.0, 5000.0, 1, 2});

  ChainRig rig(3);
  SimulatorOptions options;
  options.faults =
      compile_plan(plan, rig.topo.graph, {LinkFailure{5000.0, 1, 2}});
  // The batch at 5000 carries the kill; the recovery at the same instant
  // left the timeline, so neither routing repair nor the kick sees it.
  ASSERT_EQ(options.faults->batches().size(), 2u);
  const FaultBatch& last = options.faults->batches()[1];
  EXPECT_EQ(last.at, 5000.0);
  EXPECT_TRUE(last.edges_up.empty());
  EXPECT_EQ(last.edges_killed.size(), 2u);

  MemoryTrace trace;
  Simulator sim(&rig.topo, &rig.topo.graph, rig.fabric.get(),
                rig.strategy.get(), options, Rng(3));
  sim.set_trace(&trace);
  run_with(sim, rig.make_messages(3));

  EXPECT_EQ(sim.collector().deliveries(), 0u);
  EXPECT_EQ(sim.collector().lost_copies(), 3u);
  EXPECT_EQ(sim.collector().purges().expired, 0u);
  EXPECT_EQ(sim.collector().purges().hopeless, 0u);
  std::size_t losses = 0;
  for (const TraceEvent& event : trace.events()) {
    if (event.kind == TraceEventKind::kSendStart && event.broker == 1) {
      EXPECT_NE(event.neighbor, 2) << "killed link kicked at " << event.time;
    }
    if (event.kind == TraceEventKind::kLoss) {
      EXPECT_EQ(event.time, 5000.0);
      ++losses;
    }
  }
  EXPECT_EQ(losses, 3u);
}

// A kill on a pair with no link between them kills nothing; one naming a
// broker outside the overlay is rejected, directly and through the runner.
TEST(FaultStorm, KillOnANonAdjacentPairIsANoOpAndABadBrokerThrows) {
  ChainRig rig(3);
  SimulatorOptions options;
  options.faults = compile_plan({}, rig.topo.graph, {LinkFailure{0.0, 0, 2}});
  EXPECT_TRUE(options.faults->empty());
  const Collector c = run_chain(rig, options, rig.make_messages(3));
  EXPECT_EQ(c.valid_deliveries(), 3u);
  EXPECT_EQ(c.lost_copies(), 0u);

  EXPECT_THROW(compile_plan({}, rig.topo.graph, {LinkFailure{0.0, 0, 3}}),
               std::invalid_argument);
  EXPECT_THROW(compile_plan({}, rig.topo.graph, {LinkFailure{0.0, -1, 1}}),
               std::invalid_argument);
  SimConfig config =
      paper_base_config(ScenarioKind::kSsd, 10.0, StrategyKind::kEb, 3);
  config.workload.duration = seconds(10.0);
  config.link_failures = {LinkFailure{1000.0, 0, 1000}};
  EXPECT_THROW(run_simulation(config), std::invalid_argument);
}

// A broker crash drops its input and output queues as losses and dooms
// the send it had in flight.
TEST(FaultStorm, BrokerCrashDropsQueues) {
  FaultPlan plan;
  // Broker 1 crashes at t=600 with copies queued toward the slow tail
  // link, and never restarts.
  plan.broker_outages.push_back(BrokerOutage{600.0, kNoDeadline, 1});

  ChainRig rig(3, /*mean_ms_per_kb=*/10.0);
  // Slow down the tail link so copies queue at broker 1: 100 ms/KB x
  // 10 KB = 1000 ms per send vs 100 ms on the head link.
  const EdgeId tail = rig.topo.graph.edge_id(1, 2);
  ASSERT_NE(tail, kNoEdge);
  const EdgeId tail_back = rig.topo.graph.edge_id(2, 1);
  ASSERT_NE(tail_back, kNoEdge);
  rig.topo.graph.edge(tail).link = LinkModel(LinkParams{100.0, 0.0});
  rig.topo.graph.edge(tail_back).link = LinkModel(LinkParams{100.0, 0.0});

  SimulatorOptions options;
  options.faults = compile_plan(plan, rig.topo.graph);
  Simulator sim(&rig.topo, &rig.topo.graph, rig.fabric.get(),
                rig.strategy.get(), options, Rng(3));
  // Five messages 100 ms apart: all have crossed the head link by ~600 ms,
  // the first is mid-transfer on the tail link, the rest are queued at 1.
  run_with(sim, rig.make_messages(5));

  EXPECT_EQ(sim.collector().deliveries(), 0u);
  EXPECT_GT(sim.collector().lost_copies(), 0u);
}

// A flap strictly inside a transfer window dooms the in-flight copy even
// though the link is back up at completion time.
TEST(FaultStorm, FlapInsideTransferDoomsTheCopy) {
  FaultPlan plan;
  plan.flaps.push_back(LinkFlap{0, 1, 400.0, seconds(10.0), 100.0, 1});

  ChainRig rig(2, /*mean_ms_per_kb=*/100.0);
  SimulatorOptions options;
  options.faults = compile_plan(plan, rig.topo.graph);
  Simulator sim(&rig.topo, &rig.topo.graph, rig.fabric.get(),
                rig.strategy.get(), options, Rng(3));
  // One 10 KB message at t=100: the send occupies [102, 1102] and the
  // flap window [400, 500) sits strictly inside it.
  run_with(sim, rig.make_messages(1));

  EXPECT_EQ(sim.collector().deliveries(), 0u);
  EXPECT_EQ(sim.collector().lost_copies(), 1u);
}

// Incremental SPT repair: a diamond overlay with a cheap and an expensive
// path.  Without repair an outage on the cheap path strands every copy;
// with options.repair_fabric the fabric reroutes over the detour and the
// subscriber still gets everything.
TEST(FaultStorm, RepairRoutesAroundTheOutage) {
  const auto build_diamond = [](bool repairable) {
    Topology topo;
    topo.graph.resize(4);
    // Cheap path 0-1-3 (10 ms/KB hops), detour 0-2-3 (50 ms/KB hops).
    topo.graph.add_bidirectional(0, 1, LinkParams{10.0, 0.0});
    topo.graph.add_bidirectional(1, 3, LinkParams{10.0, 0.0});
    topo.graph.add_bidirectional(0, 2, LinkParams{50.0, 0.0});
    topo.graph.add_bidirectional(2, 3, LinkParams{50.0, 0.0});
    topo.publisher_edges = {0};
    topo.subscriber_homes = {3};
    Subscription sub;
    sub.subscriber = 0;
    sub.home = 3;
    sub.allowed_delay = minutes(2.0);
    sub.price = 2.0;
    FabricOptions fabric_options;
    fabric_options.repairable = repairable;
    return std::make_pair(
        topo, std::make_unique<RoutingFabric>(
                  topo, std::vector<Subscription>{sub}, fabric_options));
  };

  FaultPlan plan;
  plan.link_outages.push_back(LinkOutage{0.0, kNoDeadline, 1, 3});

  const auto strategy = make_strategy(StrategyKind::kEbpc);
  const auto run_diamond = [&](bool repair) {
    auto [topo, fabric] = build_diamond(repair);
    SimulatorOptions options;
    options.faults = compile_plan(plan, topo.graph);
    if (repair) options.repair_fabric = fabric.get();
    Simulator sim(&topo, &topo.graph, fabric.get(), strategy.get(), options,
                  Rng(3));
    std::vector<std::shared_ptr<const Message>> messages;
    for (MessageId i = 0; i < 4; ++i) {
      messages.push_back(std::make_shared<Message>(
          i, 0, 100.0 + 200.0 * static_cast<double>(i), 10.0,
          std::vector<Attribute>{}));
    }
    run_with(sim, std::move(messages));
    return sim.collector().valid_deliveries();
  };

  EXPECT_EQ(run_diamond(/*repair=*/false), 0u);
  EXPECT_EQ(run_diamond(/*repair=*/true), 4u);
}

// Storm scenarios through run_simulation take effect, and a rerun
// produces an exactly identical SimResult.
TEST(FaultStormEquivalence, StormConfigGrid) {
  std::vector<std::pair<std::string, SimConfig>> configs;

  // Ring: the consecutive links are known, so outages and flaps can be
  // addressed directly.  Mixed link churn plus a broker crash window.
  {
    SimConfig config =
        paper_base_config(ScenarioKind::kSsd, 10.0, StrategyKind::kEbpc, 31);
    config.workload.duration = seconds(30.0);
    config.topology = TopologyKind::kRing;
    config.broker_count = 16;
    config.faults.link_outages.push_back(
        LinkOutage{seconds(3.0), seconds(9.0), 2, 3});
    config.faults.flaps.push_back(
        LinkFlap{8, 9, seconds(5.0), seconds(4.0), seconds(0.5), 4});
    config.faults.broker_outages.push_back(
        BrokerOutage{seconds(4.0), seconds(12.0), 5});
    configs.emplace_back("ring_churn", config);
  }
  // Ring with routing repair and serialized processing: the fabric is
  // patched at fault batches.
  {
    SimConfig config =
        paper_base_config(ScenarioKind::kPsd, 12.0, StrategyKind::kPc, 37);
    config.workload.duration = seconds(30.0);
    config.topology = TopologyKind::kRing;
    config.broker_count = 14;
    config.serialize_processing = true;
    config.repair_routing = true;
    config.faults.link_outages.push_back(
        LinkOutage{seconds(2.0), seconds(20.0), 4, 5});
    config.faults.link_outages.push_back(
        LinkOutage{seconds(6.0), seconds(14.0), 10, 11});
    config.faults.flaps.push_back(
        LinkFlap{0, 1, seconds(8.0), seconds(3.0), seconds(1.0), 3});
    configs.emplace_back("ring_repair", config);
  }
  // Mesh: a killer storm centered on a hub, online estimation and a
  // flash-crowd burst riding on top.
  {
    SimConfig config =
        paper_base_config(ScenarioKind::kBoth, 12.0, StrategyKind::kEbpc, 41);
    config.workload.duration = seconds(30.0);
    config.topology = TopologyKind::kRandomMesh;
    config.broker_count = 18;
    config.extra_edges = 14;
    config.online_estimation = true;
    config.belief_noise_frac = 0.2;
    RegionStorm storm;
    storm.at = seconds(6.0);
    storm.epicenter = 3;
    storm.radius = 2;
    storm.recovery_delay = seconds(8.0);
    storm.recovery_jitter = seconds(2.0);
    storm.kill_brokers = true;
    config.faults.storms.push_back(storm);
    config.workload.bursts.push_back(
        WorkloadConfig::PublishBurst{seconds(7.0), seconds(3.0), 4.0});
    configs.emplace_back("mesh_storm", config);
  }
  // Mesh storm with repair: the strongest interaction — incremental SPT
  // repair driven from inside the simulator at every batch.
  {
    SimConfig config =
        paper_base_config(ScenarioKind::kSsd, 15.0, StrategyKind::kEb, 43);
    config.workload.duration = seconds(30.0);
    config.topology = TopologyKind::kRandomMesh;
    config.broker_count = 16;
    config.extra_edges = 12;
    config.repair_routing = true;
    RegionStorm storm;
    storm.at = seconds(5.0);
    storm.epicenter = 7;
    storm.radius = 1;
    storm.recovery_delay = seconds(10.0);
    storm.recovery_jitter = seconds(1.0);
    config.faults.storms.push_back(storm);
    config.faults.broker_outages.push_back(
        BrokerOutage{seconds(15.0), seconds(22.0), 2});
    configs.emplace_back("mesh_storm_repair", config);
  }

  for (const auto& [name, config] : configs) {
    const SimResult sequential = run_simulation(config);
    EXPECT_GT(sequential.published, 0u) << name;
    EXPECT_GT(sequential.fault_batches, 0u) << name;
    if (config.repair_routing) {
      EXPECT_GT(sequential.repaired_rows, 0u) << name;
    }
    expect_same_result(sequential, run_simulation(config), name);
  }
}

TEST(FaultStormEquivalence, TraceStreamsMatchUnderStorm) {
  const replay::TraceRing rig;
  FaultPlan plan;
  RegionStorm storm;
  storm.at = 2000.0;
  storm.epicenter = 3;
  storm.radius = 1;
  storm.recovery_delay = 3000.0;
  storm.recovery_jitter = 500.0;
  storm.kill_brokers = true;
  plan.storms.push_back(storm);
  plan.flaps.push_back(LinkFlap{6, 7, 1500.0, 2500.0, 400.0, 3});
  plan.broker_outages.push_back(BrokerOutage{7000.0, 9000.0, 5});

  SimulatorOptions options;
  options.online_estimation = true;
  options.faults = compile_plan(plan, rig.topo.graph, {}, /*seed=*/17);

  replay::TracedRun sequential;
  replay::expect_replays_bitwise(rig, options, sequential);
  EXPECT_GT(sequential.collector.deliveries(), 0u);
  EXPECT_EQ(sequential.collector.fault_batches(),
            options.faults->batches().size());
}

// Serialized processing plus a broker crash: the crash batch drops the
// broker's input queue, and those losses are traced inside the batch.
TEST(FaultStormEquivalence, TraceStreamsMatchWhenACrashDropsInputQueues) {
  const replay::TraceRing rig;
  FaultPlan plan;
  plan.broker_outages.push_back(BrokerOutage{3100.0, 6000.0, 1});
  plan.broker_outages.push_back(BrokerOutage{5300.0, 8000.0, 5});

  SimulatorOptions options;
  options.serialize_processing = true;
  options.processing_delay = 400.0;  // Slower than the arrivals: queues.
  options.faults = compile_plan(plan, rig.topo.graph);

  replay::TracedRun sequential;
  replay::expect_replays_bitwise(rig, options, sequential);
  EXPECT_GT(sequential.collector.max_input_queue(), 0u);
  // An input-queue loss is the only loss traced without a neighbour at a
  // crash instant.
  const auto& events = sequential.trace.events();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const auto& e) {
    return e.kind == TraceEventKind::kLoss && e.neighbor == kNoBroker &&
           (e.time == 3100.0 || e.time == 5300.0);
  }));
}

// A repairable fabric with repair_fabric set: an unrecovered ring cut is
// routed around, and a replay rewrites the same rows.
TEST(FaultStormEquivalence, TraceStreamsMatchUnderRoutingRepair) {
  const replay::TraceRing rig(/*repairable_fabric=*/true);
  FaultPlan plan;
  plan.link_outages.push_back(LinkOutage{1200.0, kNoDeadline, 1, 2});
  plan.link_outages.push_back(LinkOutage{4000.0, 7500.0, 5, 6});
  plan.flaps.push_back(LinkFlap{3, 4, 2500.0, 2000.0, 300.0, 2});

  SimulatorOptions options;
  options.online_estimation = true;
  options.faults = compile_plan(plan, rig.topo.graph);

  replay::TracedRun sequential;
  replay::expect_replays_bitwise(rig, options, sequential);
  EXPECT_GT(sequential.collector.repaired_rows(), 0u);
  EXPECT_GT(sequential.collector.deliveries(), 0u);
}

// Kills under routing repair: a link killed inside
// its outage window, or at the window's recovery instant, never comes back
// up, so the rows repair moved off it at the window's start never return
// to it and no copy is lost over it after the kill.
TEST(FaultStormEquivalence, KilledLinksStayRoutedAroundUnderRepair) {
  const replay::TraceRing rig(/*repairable_fabric=*/true);
  struct Case {
    const char* name;
    LinkOutage outage;
    TimeMs kill_at;
  };
  for (const Case& c : {Case{"inside", LinkOutage{1200.0, 6000.0, 1, 2},
                             3000.0},
                        Case{"at_recovery", LinkOutage{1200.0, 6000.0, 1, 2},
                             6000.0}}) {
    FaultPlan plan;
    plan.link_outages.push_back(c.outage);
    SimulatorOptions options;
    options.online_estimation = true;
    options.faults = compile_plan(
        plan, rig.topo.graph, {LinkFailure{c.kill_at, c.outage.a, c.outage.b}});
    for (const FaultBatch& batch : options.faults->batches()) {
      EXPECT_TRUE(batch.edges_up.empty()) << c.name;
    }

    replay::TracedRun sequential;
    replay::expect_replays_bitwise(rig, options, sequential);
    EXPECT_GT(sequential.collector.repaired_rows(), 0u) << c.name;
    EXPECT_GT(sequential.collector.valid_deliveries(), 0u) << c.name;
    for (const TraceEvent& event : sequential.trace.events()) {
      const bool over_killed_link =
          (event.broker == c.outage.a && event.neighbor == c.outage.b) ||
          (event.broker == c.outage.b && event.neighbor == c.outage.a);
      if (!over_killed_link || event.time <= c.kill_at) continue;
      EXPECT_NE(event.kind, TraceEventKind::kLoss)
          << c.name << ": loss over the killed link at " << event.time;
      EXPECT_NE(event.kind, TraceEventKind::kSendStart)
          << c.name << ": send over the killed link at " << event.time;
    }
  }
}

}  // namespace
}  // namespace bdps
