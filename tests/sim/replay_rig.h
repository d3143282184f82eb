// Shared rig for the fault-storm replay suites.
//
// A run is a pure function of its seed: replaying it must reproduce every
// observable bit for bit.
//
//   * expect_same_result compares every SimResult field of two runs, and
//     expect_same_collector every Collector aggregate;
//   * TraceRing is an 8-broker ring driven directly (not through the
//     runner) so a run can carry a MemoryTrace, and expect_replays_bitwise
//     runs it twice through Simulator, comparing the trace streams event
//     for event and field for field, the end state and every online
//     estimator.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "experiment/paper.h"
#include "experiment/runner.h"
#include "routing/fabric.h"
#include "sim/simulator.h"

namespace bdps::replay {

inline void expect_same_result(const SimResult& first,
                               const SimResult& second,
                               const std::string& label) {
  EXPECT_EQ(first.published, second.published) << label;
  EXPECT_EQ(first.receptions, second.receptions) << label;
  EXPECT_EQ(first.deliveries, second.deliveries) << label;
  EXPECT_EQ(first.valid_deliveries, second.valid_deliveries) << label;
  EXPECT_EQ(first.total_interested, second.total_interested) << label;
  EXPECT_EQ(first.delivery_rate, second.delivery_rate) << label;
  EXPECT_EQ(first.earning, second.earning) << label;
  EXPECT_EQ(first.potential_earning, second.potential_earning) << label;
  EXPECT_EQ(first.purged_expired, second.purged_expired) << label;
  EXPECT_EQ(first.purged_hopeless, second.purged_hopeless) << label;
  EXPECT_EQ(first.lost_copies, second.lost_copies) << label;
  EXPECT_EQ(first.max_input_queue, second.max_input_queue) << label;
  EXPECT_EQ(first.fault_batches, second.fault_batches) << label;
  EXPECT_EQ(first.repaired_rows, second.repaired_rows) << label;
  EXPECT_EQ(first.mean_valid_delay_ms, second.mean_valid_delay_ms) << label;
  EXPECT_EQ(first.end_time, second.end_time) << label;
}

inline void expect_same_collector(const Collector& first,
                                  const Collector& second,
                                  const std::string& label) {
  EXPECT_EQ(first.published(), second.published()) << label;
  EXPECT_EQ(first.receptions(), second.receptions()) << label;
  EXPECT_EQ(first.deliveries(), second.deliveries()) << label;
  EXPECT_EQ(first.valid_deliveries(), second.valid_deliveries()) << label;
  EXPECT_EQ(first.total_interested(), second.total_interested()) << label;
  EXPECT_EQ(first.earning(), second.earning()) << label;
  EXPECT_EQ(first.potential_earning(), second.potential_earning()) << label;
  EXPECT_EQ(first.purges().expired, second.purges().expired) << label;
  EXPECT_EQ(first.purges().hopeless, second.purges().hopeless) << label;
  EXPECT_EQ(first.lost_copies(), second.lost_copies()) << label;
  EXPECT_EQ(first.max_input_queue(), second.max_input_queue()) << label;
  EXPECT_EQ(first.fault_batches(), second.fault_batches()) << label;
  EXPECT_EQ(first.repaired_rows(), second.repaired_rows()) << label;
  EXPECT_EQ(first.valid_delay().count(), second.valid_delay().count())
      << label;
  EXPECT_EQ(first.valid_delay().mean(), second.valid_delay().mean())
      << label;
}

/// Ring 0-1-...-7-0 with noisy links, publishers at brokers 0 and 4 and a
/// wildcard subscriber at every broker.  `repairable` builds fabrics that
/// can repair routing; each run gets a fresh fabric, since repair rewrites
/// it in place.
struct TraceRing {
  Topology topo;
  std::unique_ptr<const Strategy> strategy = make_strategy(StrategyKind::kEbpc);
  bool repairable = false;

  explicit TraceRing(bool repairable_fabric = false)
      : repairable(repairable_fabric) {
    constexpr std::size_t brokers = 8;
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

/// What one run left behind.
struct TracedRun {
  MemoryTrace trace;
  Collector collector;
  TimeMs now = 0.0;
  /// Per true edge: sample count and mean, or -1/0 for no estimator.
  std::vector<std::pair<long, double>> estimators;
};

inline void run_traced(const TraceRing& rig, SimulatorOptions options,
                       TracedRun& out) {
  const auto fabric = rig.make_fabric();
  if (rig.repairable) options.repair_fabric = fabric.get();
  Simulator sim(&rig.topo, &rig.topo.graph, fabric.get(), rig.strategy.get(),
                options, Rng(99));
  sim.set_trace(&out.trace);
  for (auto& message : rig.make_messages()) {
    sim.schedule_publish(std::move(message));
  }
  sim.run();
  out.collector = sim.collector();
  out.now = sim.now();
  for (std::size_t e = 0; e < rig.topo.graph.edge_count(); ++e) {
    const RateEstimator* estimator = sim.estimator(static_cast<EdgeId>(e));
    out.estimators.emplace_back(
        estimator == nullptr ? -1L
                             : static_cast<long>(estimator->sample_count()),
        estimator == nullptr ? 0.0 : estimator->samples().mean());
  }
}

/// Runs the rig twice and asserts identical observables; `first` receives
/// the first run for scenario-specific checks.
inline void expect_replays_bitwise(const TraceRing& rig,
                                   const SimulatorOptions& options,
                                   TracedRun& first) {
  run_traced(rig, options, first);
  TracedRun second;
  run_traced(rig, options, second);

  EXPECT_EQ(second.now, first.now);
  expect_same_collector(first.collector, second.collector, "replay");
  ASSERT_EQ(second.trace.size(), first.trace.size());
  for (std::size_t i = 0; i < first.trace.size(); ++i) {
    const TraceEvent& want = first.trace.events()[i];
    const TraceEvent& got = second.trace.events()[i];
    ASSERT_EQ(got.time, want.time) << "event " << i;
    ASSERT_EQ(got.kind, want.kind) << "event " << i;
    ASSERT_EQ(got.message, want.message) << "event " << i;
    ASSERT_EQ(got.broker, want.broker) << "event " << i;
    ASSERT_EQ(got.neighbor, want.neighbor) << "event " << i;
    ASSERT_EQ(got.subscriber, want.subscriber) << "event " << i;
    ASSERT_EQ(got.valid, want.valid) << "event " << i;
  }
  // The online estimators end in the same state on every true edge.
  ASSERT_EQ(second.estimators.size(), first.estimators.size());
  for (std::size_t e = 0; e < first.estimators.size(); ++e) {
    EXPECT_EQ(second.estimators[e].first, first.estimators[e].first)
        << "edge " << e;
    EXPECT_EQ(second.estimators[e].second, first.estimators[e].second)
        << "edge " << e;
  }
}

}  // namespace bdps::replay
