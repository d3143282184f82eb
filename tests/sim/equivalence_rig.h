// Shared rig for the sequential-vs-sharded equivalence suites.
//
// Both engines run the same BrokerStep; these helpers check that the
// sharded engine's ordering reproduces the sequential one exactly:
//
//   * expect_same_result compares every SimResult field of two runs, and
//     expect_same_collector every Collector aggregate;
//   * run_both_engines runs hand-built options through Simulator and
//     ParallelSimulator at two shards and expects the same Collector;
//   * TraceRing is an 8-broker ring driven directly (not through the
//     runner) so both engines can carry a MemoryTrace, and
//     expect_same_traces replays it through Simulator and through
//     ParallelSimulator at P in {1, 2, 3, 7}, comparing the trace streams
//     event for event and field for field, the end state and every online
//     estimator.  P = 1 pushes arrivals at completion; P > 1 deposits them
//     at send start, so the list covers both transport paths.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "experiment/paper.h"
#include "experiment/runner.h"
#include "routing/fabric.h"
#include "sim/parallel/parallel_simulator.h"
#include "sim/simulator.h"

namespace bdps::equivalence {

inline void expect_same_result(const SimResult& sequential,
                               const SimResult& sharded,
                               const std::string& label) {
  EXPECT_EQ(sequential.published, sharded.published) << label;
  EXPECT_EQ(sequential.receptions, sharded.receptions) << label;
  EXPECT_EQ(sequential.deliveries, sharded.deliveries) << label;
  EXPECT_EQ(sequential.valid_deliveries, sharded.valid_deliveries) << label;
  EXPECT_EQ(sequential.total_interested, sharded.total_interested) << label;
  EXPECT_EQ(sequential.delivery_rate, sharded.delivery_rate) << label;
  EXPECT_EQ(sequential.earning, sharded.earning) << label;
  EXPECT_EQ(sequential.potential_earning, sharded.potential_earning) << label;
  EXPECT_EQ(sequential.purged_expired, sharded.purged_expired) << label;
  EXPECT_EQ(sequential.purged_hopeless, sharded.purged_hopeless) << label;
  EXPECT_EQ(sequential.lost_copies, sharded.lost_copies) << label;
  EXPECT_EQ(sequential.max_input_queue, sharded.max_input_queue) << label;
  EXPECT_EQ(sequential.fault_batches, sharded.fault_batches) << label;
  EXPECT_EQ(sequential.repaired_rows, sharded.repaired_rows) << label;
  EXPECT_EQ(sequential.mean_valid_delay_ms, sharded.mean_valid_delay_ms)
      << label;
  EXPECT_EQ(sequential.end_time, sharded.end_time) << label;
}

inline void expect_same_collector(const Collector& sequential,
                                  const Collector& sharded,
                                  const std::string& label) {
  EXPECT_EQ(sequential.published(), sharded.published()) << label;
  EXPECT_EQ(sequential.receptions(), sharded.receptions()) << label;
  EXPECT_EQ(sequential.deliveries(), sharded.deliveries()) << label;
  EXPECT_EQ(sequential.valid_deliveries(), sharded.valid_deliveries())
      << label;
  EXPECT_EQ(sequential.total_interested(), sharded.total_interested())
      << label;
  EXPECT_EQ(sequential.earning(), sharded.earning()) << label;
  EXPECT_EQ(sequential.potential_earning(), sharded.potential_earning())
      << label;
  EXPECT_EQ(sequential.purges().expired, sharded.purges().expired) << label;
  EXPECT_EQ(sequential.purges().hopeless, sharded.purges().hopeless) << label;
  EXPECT_EQ(sequential.lost_copies(), sharded.lost_copies()) << label;
  EXPECT_EQ(sequential.max_input_queue(), sharded.max_input_queue()) << label;
  EXPECT_EQ(sequential.fault_batches(), sharded.fault_batches()) << label;
  EXPECT_EQ(sequential.repaired_rows(), sharded.repaired_rows()) << label;
  EXPECT_EQ(sequential.valid_delay().count(), sharded.valid_delay().count())
      << label;
  EXPECT_EQ(sequential.valid_delay().mean(), sharded.valid_delay().mean())
      << label;
}

using Messages = std::vector<std::shared_ptr<const Message>>;

/// Runs `messages` through Simulator, then through ParallelSimulator at
/// two shards; both must leave the same Collector, which is returned.
inline Collector run_both_engines(const Topology& topo,
                                  const RoutingFabric& fabric,
                                  const Strategy& strategy,
                                  SimulatorOptions options,
                                  const Messages& messages) {
  Simulator sim(&topo, &topo.graph, &fabric, &strategy, options, Rng(1));
  for (const auto& message : messages) sim.schedule_publish(message);
  sim.run();
  options.shards = 2;
  ParallelSimulator parallel(&topo, &topo.graph, &fabric, &strategy, options,
                             Rng(1));
  for (const auto& message : messages) parallel.schedule_publish(message);
  parallel.run();
  expect_same_collector(sim.collector(), parallel.collector(), "P2");
  EXPECT_EQ(sim.now(), parallel.now());
  return sim.collector();
}

/// Ring 0-1-...-7-0 with noisy links, publishers at brokers 0 and 4 and a
/// wildcard subscriber at every broker.  `repairable` builds fabrics that
/// can repair routing; each run gets a fresh fabric, since repair rewrites
/// it in place.
struct TraceRing {
  Topology topo;
  std::unique_ptr<const Strategy> strategy = make_strategy(StrategyKind::kEbpc);
  bool repairable = false;

  explicit TraceRing(bool repairable_fabric = false, std::size_t brokers = 8)
      : repairable(repairable_fabric) {
    topo.graph.resize(brokers);
    for (std::size_t b = 0; b < brokers; ++b) {
      topo.graph.add_bidirectional(
          static_cast<BrokerId>(b), static_cast<BrokerId>((b + 1) % brokers),
          LinkParams{40.0 + 5.0 * (b % 3), 8.0});
    }
    topo.publisher_edges = {0, static_cast<BrokerId>(brokers / 2)};
    for (std::size_t b = 0; b < brokers; ++b) {
      topo.subscriber_homes.push_back(static_cast<BrokerId>(b));
    }
  }

  std::unique_ptr<RoutingFabric> make_fabric() const {
    std::vector<Subscription> subs;
    for (const BrokerId home : topo.subscriber_homes) {
      Subscription sub;
      sub.subscriber = static_cast<SubscriberId>(home);
      sub.home = home;
      sub.allowed_delay = minutes(2.0);
      sub.price = 1.0 + static_cast<double>(home % 4);
      subs.push_back(sub);  // Wildcard filter: every message matches.
    }
    FabricOptions options;
    options.repairable = repairable;
    return std::make_unique<RoutingFabric>(topo, std::move(subs), options);
  }

  std::vector<std::shared_ptr<const Message>> make_messages() const {
    std::vector<std::shared_ptr<const Message>> messages;
    for (MessageId i = 0; i < 40; ++i) {
      messages.push_back(std::make_shared<Message>(
          i, static_cast<PublisherId>(i % 2), 250.0 * static_cast<double>(i),
          30.0 + static_cast<double>(i % 5), std::vector<Attribute>{}));
    }
    return messages;
  }
};

/// What one engine run left behind.
struct TracedRun {
  MemoryTrace trace;
  Collector collector;
  TimeMs now = 0.0;
  /// Per true edge: sample count and mean, or -1/0 for no estimator.
  std::vector<std::pair<long, double>> estimators;
};

template <class Engine>
void run_traced(const TraceRing& rig, SimulatorOptions options,
                TracedRun& out) {
  const auto fabric = rig.make_fabric();
  if (rig.repairable) options.repair_fabric = fabric.get();
  Engine engine(&rig.topo, &rig.topo.graph, fabric.get(), rig.strategy.get(),
                options, Rng(99));
  engine.set_trace(&out.trace);
  for (auto& message : rig.make_messages()) {
    engine.schedule_publish(std::move(message));
  }
  engine.run();
  out.collector = engine.collector();
  out.now = engine.now();
  for (std::size_t e = 0; e < rig.topo.graph.edge_count(); ++e) {
    const RateEstimator* estimator = engine.estimator(static_cast<EdgeId>(e));
    out.estimators.emplace_back(
        estimator == nullptr ? -1L
                             : static_cast<long>(estimator->sample_count()),
        estimator == nullptr ? 0.0 : estimator->samples().mean());
  }
}

/// Runs the rig through both engines and asserts identical observables;
/// `sequential` receives the sequential run for scenario-specific checks.
inline void expect_same_traces(
    const TraceRing& rig, const SimulatorOptions& options,
    TracedRun& sequential,
    std::initializer_list<std::size_t> shard_counts = {1, 2, 3, 7}) {
  run_traced<Simulator>(rig, options, sequential);
  for (const std::size_t shards : shard_counts) {
    SimulatorOptions sharded_options = options;
    sharded_options.shards = shards;
    TracedRun parallel;
    run_traced<ParallelSimulator>(rig, sharded_options, parallel);

    EXPECT_EQ(parallel.now, sequential.now) << shards;
    expect_same_collector(sequential.collector, parallel.collector,
                          "P" + std::to_string(shards));
    ASSERT_EQ(parallel.trace.size(), sequential.trace.size()) << shards;
    for (std::size_t i = 0; i < sequential.trace.size(); ++i) {
      const TraceEvent& want = sequential.trace.events()[i];
      const TraceEvent& got = parallel.trace.events()[i];
      ASSERT_EQ(got.time, want.time) << "event " << i << " P" << shards;
      ASSERT_EQ(got.kind, want.kind) << "event " << i << " P" << shards;
      ASSERT_EQ(got.message, want.message) << "event " << i << " P" << shards;
      ASSERT_EQ(got.broker, want.broker) << "event " << i << " P" << shards;
      ASSERT_EQ(got.neighbor, want.neighbor) << "event " << i;
      ASSERT_EQ(got.subscriber, want.subscriber) << "event " << i;
      ASSERT_EQ(got.valid, want.valid) << "event " << i;
    }
    // The online estimators end in the same state on every true edge.
    ASSERT_EQ(parallel.estimators.size(), sequential.estimators.size());
    for (std::size_t e = 0; e < sequential.estimators.size(); ++e) {
      EXPECT_EQ(parallel.estimators[e].first, sequential.estimators[e].first)
          << "edge " << e << " P" << shards;
      EXPECT_EQ(parallel.estimators[e].second,
                sequential.estimators[e].second)
          << "edge " << e << " P" << shards;
    }
  }
}

}  // namespace bdps::equivalence
