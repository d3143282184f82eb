// Event tracing and the per-hop delay decomposition.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/simulator.h"
#include "trace/analysis.h"

namespace bdps {
namespace {

/// Same deterministic line rig as simulator_test (0 -100ms/KB- 1 - 2).
struct TraceRig {
  Topology topo;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> scheduler;
  SimulatorOptions options;

  explicit TraceRig(TimeMs deadline = seconds(60.0)) {
    topo.graph.resize(3);
    topo.graph.add_bidirectional(0, 1, LinkParams{100.0, 0.0});
    topo.graph.add_bidirectional(1, 2, LinkParams{100.0, 0.0});
    topo.publisher_edges = {0};
    topo.subscriber_homes = {2};
    Subscription sub;
    sub.subscriber = 0;
    sub.home = 2;
    sub.allowed_delay = deadline;
    fabric = std::make_unique<RoutingFabric>(topo,
                                             std::vector<Subscription>{sub});
    scheduler = make_strategy(StrategyKind::kFifo);
    options.processing_delay = 2.0;
  }

  Simulator make() {
    return Simulator(&topo, &topo.graph, fabric.get(), scheduler.get(),
                     options, Rng(1));
  }

  static std::shared_ptr<const Message> message(MessageId id, TimeMs when) {
    return std::make_shared<Message>(id, 0, when, 50.0,
                                     std::vector<Attribute>{});
  }
};

std::size_t count_kind(const MemoryTrace& trace, TraceEventKind kind) {
  std::size_t n = 0;
  for (const auto& e : trace.events()) n += (e.kind == kind) ? 1 : 0;
  return n;
}

TEST(Trace, RecordsEveryLifecycleStage) {
  TraceRig rig;
  MemoryTrace trace;
  Simulator sim = rig.make();
  sim.set_trace(&trace);
  sim.schedule_publish(TraceRig::message(0, 0.0));
  sim.run();

  EXPECT_EQ(count_kind(trace, TraceEventKind::kPublish), 1u);
  EXPECT_EQ(count_kind(trace, TraceEventKind::kArrival), 3u);
  EXPECT_EQ(count_kind(trace, TraceEventKind::kProcessed), 3u);
  EXPECT_EQ(count_kind(trace, TraceEventKind::kEnqueue), 2u);
  EXPECT_EQ(count_kind(trace, TraceEventKind::kSendStart), 2u);
  EXPECT_EQ(count_kind(trace, TraceEventKind::kSendEnd), 2u);
  EXPECT_EQ(count_kind(trace, TraceEventKind::kDeliver), 1u);
  EXPECT_EQ(count_kind(trace, TraceEventKind::kPurge), 0u);
}

TEST(Trace, EventsAreTimeOrdered) {
  TraceRig rig;
  MemoryTrace trace;
  Simulator sim = rig.make();
  sim.set_trace(&trace);
  for (MessageId i = 0; i < 5; ++i) {
    sim.schedule_publish(TraceRig::message(i, i * 1000.0));
  }
  sim.run();
  for (std::size_t i = 1; i < trace.size(); ++i) {
    ASSERT_GE(trace.events()[i].time, trace.events()[i - 1].time);
  }
}

TEST(TraceAnalysis, DecomposesQueueingAndTransmission) {
  TraceRig rig;
  MemoryTrace trace;
  Simulator sim = rig.make();
  sim.set_trace(&trace);
  // Two simultaneous messages: the second queues exactly one transmission
  // time (5000 ms) at broker 0.
  sim.schedule_publish(TraceRig::message(0, 0.0));
  sim.schedule_publish(TraceRig::message(1, 0.0));
  sim.run();

  const TraceAnalysis analysis = analyze_trace(trace);
  ASSERT_EQ(analysis.hops.size(), 4u);  // 2 messages x 2 hops.
  // All transmissions are exactly 5000 ms on the zero-variance links.
  EXPECT_DOUBLE_EQ(analysis.transmission.mean(), 5000.0);
  EXPECT_DOUBLE_EQ(analysis.transmission.min(), 5000.0);
  EXPECT_DOUBLE_EQ(analysis.transmission.max(), 5000.0);
  // Queueing: 0 for three hops, 5000 ms for message 1's first hop.
  EXPECT_DOUBLE_EQ(analysis.queueing.max(), 5000.0);
  EXPECT_DOUBLE_EQ(analysis.queueing.mean(), 1250.0);
  EXPECT_EQ(analysis.valid_deliveries, 2u);
  EXPECT_DOUBLE_EQ(analysis.valid_latency.min(), 10006.0);
  EXPECT_DOUBLE_EQ(analysis.valid_latency.max(), 15006.0);
  EXPECT_GT(analysis.queueing_share(), 0.15);
  EXPECT_LT(analysis.queueing_share(), 0.25);  // 5000 / 25000.
}

TEST(TraceAnalysis, CountsPurgedCopies) {
  TraceRig rig(/*deadline=*/5000.0);  // Unreachable: needs ~10 s.
  MemoryTrace trace;
  Simulator sim = rig.make();
  sim.set_trace(&trace);
  sim.schedule_publish(TraceRig::message(0, 0.0));
  sim.run();
  const TraceAnalysis analysis = analyze_trace(trace);
  EXPECT_EQ(analysis.purged_copies, 1u);
  EXPECT_EQ(analysis.deliveries, 0u);
}

TEST(TraceAnalysis, CountsLossesFromFailures) {
  TraceRig rig;
  rig.options.faults = std::make_shared<const CompiledFaults>(
      CompiledFaults::compile({}, rig.topo.graph, {LinkFailure{3000.0, 0, 1}}));
  MemoryTrace trace;
  Simulator sim = rig.make();
  sim.set_trace(&trace);
  sim.schedule_publish(TraceRig::message(0, 0.0));
  sim.run();
  const TraceAnalysis analysis = analyze_trace(trace);
  EXPECT_EQ(analysis.lost_copies, 1u);
  EXPECT_EQ(analysis.deliveries, 0u);
}

TEST(TraceAnalysis, LateDeliveriesLandInLateLatency) {
  TraceRig rig(/*deadline=*/10005.0);  // 1 ms short of achievable.
  rig.options.purge.epsilon = 0.0;
  rig.options.purge.drop_expired = false;
  MemoryTrace trace;
  Simulator sim = rig.make();
  sim.set_trace(&trace);
  sim.schedule_publish(TraceRig::message(0, 0.0));
  sim.run();
  const TraceAnalysis analysis = analyze_trace(trace);
  EXPECT_EQ(analysis.deliveries, 1u);
  EXPECT_EQ(analysis.valid_deliveries, 0u);
  EXPECT_EQ(analysis.late_latency.count(), 1u);
  EXPECT_DOUBLE_EQ(analysis.late_latency.mean(), 10006.0);
}

TEST(CsvTraceSink, WritesOneRowPerEvent) {
  const std::string path = ::testing::TempDir() + "bdps_trace_test.csv";
  {
    TraceRig rig;
    CsvTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    Simulator sim = rig.make();
    sim.set_trace(&sink);
    sim.schedule_publish(TraceRig::message(0, 0.0));
    sim.run();
  }
  std::ifstream in(path);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  // Header + 1 publish + 3 arrivals + 3 processed + 2 enqueue + 2 start +
  // 2 end + 1 deliver = 15.
  EXPECT_EQ(rows, 15u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bdps
