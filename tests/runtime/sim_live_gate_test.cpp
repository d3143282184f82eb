// The sim<->live gate: the live reactor runs the simulators' BrokerStep, so
// one worker on the virtual clock must reproduce run_simulation bit for
// bit.  Each golden row runs twice with serialize_processing (the live
// runtime's processing model):
//
//   * run_simulation with a TraceSink, which yields each delivery's
//     (subscriber, message, kDeliver time - publish time, valid);
//   * LiveNetwork on the virtual clock with one worker, every message
//     published at its generated instant under its generated id.
//
// Counts (receptions, deliveries, valid deliveries, purges, losses) must
// be equal and the sorted delivery multisets bitwise equal.  The storm rows
// stay out: live, a link-down never cuts the frame on the wire, which the
// simulators' plan does on purpose.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "../sim/golden_matrix.h"
#include "experiment/live.h"
#include "experiment/runner.h"

namespace bdps {
namespace {

/// One delivery, its delay as raw bits so the comparison is bitwise.
using DeliveryKey = std::tuple<SubscriberId, MessageId, std::uint64_t, bool>;

DeliveryKey key(SubscriberId subscriber, MessageId message, TimeMs delay,
                bool valid) {
  return {subscriber, message, std::bit_cast<std::uint64_t>(delay), valid};
}

/// Reads the deliveries off a simulator trace: the delay is the kDeliver
/// instant minus the message's publish instant (Message::elapsed).
class DeliveryTap final : public TraceSink {
 public:
  void record(const TraceEvent& event) override {
    if (event.kind == TraceEventKind::kPublish) {
      published_at_[event.message] = event.time;
    } else if (event.kind == TraceEventKind::kDeliver) {
      deliveries.push_back(key(event.subscriber, event.message,
                               event.time - published_at_.at(event.message),
                               event.valid));
    }
  }
  std::vector<DeliveryKey> deliveries;

 private:
  std::map<MessageId, TimeMs> published_at_;
};

SimConfig gate_config(const std::string& name) {
  for (const auto& golden : bdps_golden::golden_cases()) {
    if (golden.name != name) continue;
    SimConfig config = golden.config;
    config.serialize_processing = true;
    return config;
  }
  ADD_FAILURE() << "no golden row " << name;
  return SimConfig{};
}

class SimLiveGate : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(GoldenRows, SimLiveGate,
                         ::testing::Values("paper_ssd_ebpc_s1",
                                           "paper_psd_fifo_s7",
                                           "ring_psd_serialized"),
                         [](const auto& info) { return info.param; });

TEST_P(SimLiveGate, VirtualClockReactorMatchesTheSimulatorBitwise) {
  const SimConfig config = gate_config(GetParam());

  DeliveryTap tap;
  const SimResult sim = run_simulation(config, &tap);

  LiveRunConfig live_config;
  live_config.sim = config;
  live_config.workers = 1;
  const LiveWorld world = build_live_world(live_config);
  LiveNetwork net(&world.topology, world.fabric.get(), world.strategy.get(),
                  live_options_for(live_config, 0, 1, {}));
  net.start_virtual();
  for (const auto& message : world.messages) {
    net.run_until(message->publish_time());
    net.publish(message->publisher(), *message, message->id());
  }
  net.run_until(kNoDeadline);
  EXPECT_EQ(net.outstanding(), 0u);
  net.stop();  // Asserts BrokerStep::check_invariants without NDEBUG.

  const LiveStats& live = net.stats();
  EXPECT_EQ(world.messages.size(), sim.published);
  EXPECT_EQ(live.receptions(), sim.receptions);
  EXPECT_EQ(live.deliveries().size(), sim.deliveries);
  EXPECT_EQ(live.valid_deliveries(), sim.valid_deliveries);
  EXPECT_EQ(live.purged(), sim.purged_expired + sim.purged_hopeless);
  EXPECT_EQ(live.lost(), sim.lost_copies);
  // The rows are not trivial: copies deliver, and some are purged.
  EXPECT_GT(sim.valid_deliveries, 0u);
  EXPECT_GT(sim.purged_expired + sim.purged_hopeless, 0u);

  std::vector<DeliveryKey> live_deliveries;
  for (const LiveDelivery& d : live.deliveries()) {
    live_deliveries.push_back(key(d.subscriber, d.message, d.delay, d.valid));
  }
  std::sort(live_deliveries.begin(), live_deliveries.end());
  std::sort(tap.deliveries.begin(), tap.deliveries.end());
  EXPECT_TRUE(live_deliveries == tap.deliveries)
      << "delivery multisets differ: " << live_deliveries.size() << " live, "
      << tap.deliveries.size() << " simulated";
}

// The live world draws run_simulation's streams in run_simulation's order
// (topology, workload, link, belief, then the fault stream), so one config
// names the same fault timeline in both harnesses.
TEST(LiveStreams, LiveWorldCompilesTheSimulatorsFaultBatches) {
  LiveRunConfig live_config;
  live_config.sim = gate_config("mesh_fault_storm");
  const SimConfig& config = live_config.sim;
  const LiveWorld world = build_live_world(live_config);
  ASSERT_NE(world.faults, nullptr);

  // The simulator's derivation, spelled out.
  Rng root(config.seed);
  Rng topology_rng = root.split();
  for (int skipped = 0; skipped < 3; ++skipped) root.split();
  const Topology topology = build_topology(topology_rng, config);
  Rng fault_rng = root.split();
  const CompiledFaults expected = CompiledFaults::compile(
      materialize_faults(config.faults, topology.graph, fault_rng),
      topology.graph);

  const auto& got = world.faults->batches();
  ASSERT_EQ(got.size(), expected.batches().size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].at, expected.batches()[i].at) << "batch " << i;
    EXPECT_EQ(got[i].brokers_down, expected.batches()[i].brokers_down);
    EXPECT_EQ(got[i].brokers_up, expected.batches()[i].brokers_up);
    EXPECT_EQ(got[i].edges_down, expected.batches()[i].edges_down);
    EXPECT_EQ(got[i].edges_up, expected.batches()[i].edges_up);
    EXPECT_EQ(got[i].edges_killed, expected.batches()[i].edges_killed);
  }
  // And the simulator applies exactly that many batches.
  EXPECT_EQ(run_simulation(config).fault_batches, got.size());
}

}  // namespace
}  // namespace bdps
