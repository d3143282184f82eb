#include "experiment/runner.h"

#include <algorithm>
#include <utility>

#include "routing/fabric.h"
#include "sim/parallel/parallel_simulator.h"
#include "topology/edge_map.h"
#include "workload/generator.h"

namespace bdps {

namespace {

/// Copies the true graph, multiplying each link mean by (1 + U(-f, f)).
/// Brokers then route and score with these perturbed beliefs while sends
/// sample reality.
Graph perturb_beliefs(const Graph& truth, double noise_frac, Rng& rng) {
  Graph believed(truth.broker_count());
  for (std::size_t e = 0; e < truth.edge_count(); ++e) {
    const Edge& edge = truth.edge(static_cast<EdgeId>(e));
    LinkParams params = edge.link.params();
    params.mean_ms_per_kb *= 1.0 + rng.uniform(-noise_frac, noise_frac);
    if (params.mean_ms_per_kb < LinkModel::kMinRateMsPerKb) {
      params.mean_ms_per_kb = LinkModel::kMinRateMsPerKb;
    }
    believed.add_edge(edge.from, edge.to, params);
  }
  return believed;
}

}  // namespace

SimResult run_simulation(const SimConfig& config) {
  return run_simulation(config, nullptr);
}

std::shared_ptr<const CompiledFaults> compile_run_faults(
    const SimConfig& config, const Graph& graph, RunStreams& streams,
    bool with_kills) {
  // Terminal link kills compile into the fault timeline with the plan.
  std::vector<LinkFailure> kills = config.link_failures;
  if (config.random_link_failures > 0 && graph.edge_count() > 0) {
    Rng failure_rng = streams.next();
    // Undirected links are deduplicated by their canonical (min -> max)
    // direction's edge id — one flag bit per edge instead of a pair set.
    EdgeFlags chosen(graph.edge_count());
    const std::size_t limit =
        std::min(config.random_link_failures, graph.edge_count() / 2);
    std::size_t guard = 0;
    while (chosen.count() < limit && ++guard < 100 * limit) {
      const auto id =
          static_cast<EdgeId>(failure_rng.uniform_index(graph.edge_count()));
      const Edge& edge = graph.edge(id);
      const BrokerId lo = std::min(edge.from, edge.to);
      const BrokerId hi = std::max(edge.from, edge.to);
      EdgeId canonical = graph.edge_id(lo, hi);
      if (canonical == kNoEdge) canonical = id;  // One-way link.
      if (chosen.test(canonical)) continue;
      chosen.set(canonical);
      kills.push_back(LinkFailure{
          failure_rng.uniform(0.0, config.workload.duration), lo, hi});
    }
  }
  if (!with_kills) kills.clear();

  FaultPlan normalized;
  if (!config.faults.empty()) {
    // Fault stream split only when a plan exists, so fault-free runs draw
    // the identical sequence they always did.
    Rng fault_rng = streams.next();
    normalized = materialize_faults(config.faults, graph, fault_rng);
  }
  if (config.faults.empty() && kills.empty()) return nullptr;
  return std::make_shared<const CompiledFaults>(
      CompiledFaults::compile(normalized, graph, kills));
}

SimResult run_simulation(const SimConfig& config, TraceSink* trace) {
  RunStreams streams(config.seed);
  Topology topology = build_topology(streams.topology, config);
  if (config.true_rate_shape != RateShape::kNormal) {
    for (std::size_t e = 0; e < topology.graph.edge_count(); ++e) {
      Edge& edge = topology.graph.edge(static_cast<EdgeId>(e));
      LinkParams params = edge.link.params();
      params.shape = config.true_rate_shape;
      edge.link = LinkModel(params);
    }
  }

  // The graph brokers *believe* in: identical to truth unless the
  // estimation ablation injects noise.
  const Graph believed =
      config.belief_noise_frac > 0.0
          ? perturb_beliefs(topology.graph, config.belief_noise_frac,
                            streams.belief)
          : topology.graph;
  Topology believed_topology;
  believed_topology.graph = believed;
  believed_topology.publisher_edges = topology.publisher_edges;
  believed_topology.subscriber_homes = topology.subscriber_homes;

  std::vector<Subscription> subscriptions =
      generate_subscriptions(streams.workload, config.workload, topology);
  FabricOptions fabric_options;
  fabric_options.multipath = config.multipath;
  fabric_options.repairable = config.repair_routing && !config.faults.empty();
  RoutingFabric fabric(believed_topology, std::move(subscriptions),
                       fabric_options);

  const auto strategy = make_strategy(config.strategy, config.ebpc_weight);

  SimulatorOptions options;
  options.processing_delay = config.processing_delay;
  options.purge = config.purge;
  options.horizon = config.workload.duration + config.drain_grace;
  options.online_estimation = config.online_estimation;
  options.dedup_arrivals = config.multipath;
  options.serialize_processing = config.serialize_processing;
  options.faults = compile_run_faults(config, topology.graph, streams);
  if (!config.faults.empty() && fabric_options.repairable) {
    options.repair_fabric = &fabric;
  }

  options.shards = config.shards;

  std::vector<std::shared_ptr<const Message>> messages = generate_messages(
      streams.workload, config.workload, topology.publisher_count());

  const auto collect = [](const Collector& collector, TimeMs end_time) {
    SimResult result;
    result.published = collector.published();
    result.receptions = collector.receptions();
    result.deliveries = collector.deliveries();
    result.valid_deliveries = collector.valid_deliveries();
    result.total_interested = collector.total_interested();
    result.delivery_rate = collector.delivery_rate();
    result.earning = collector.earning();
    result.potential_earning = collector.potential_earning();
    result.purged_expired = collector.purges().expired;
    result.purged_hopeless = collector.purges().hopeless;
    result.lost_copies = collector.lost_copies();
    result.max_input_queue = collector.max_input_queue();
    result.fault_batches = collector.fault_batches();
    result.repaired_rows = collector.repaired_rows();
    result.mean_valid_delay_ms = collector.valid_delay().mean();
    result.end_time = end_time;
    return result;
  };

  if (options.shards > 0) {
    // Sharded engine: bitwise-identical collector output (golden-pinned),
    // one event lane per shard.
    ParallelSimulator simulator(&topology, &believed_topology.graph, &fabric,
                                strategy.get(), options, streams.link);
    simulator.set_trace(trace);
    for (auto& message : messages) {
      simulator.schedule_publish(std::move(message));
    }
    simulator.run();
    return collect(simulator.collector(), simulator.now());
  }

  Simulator simulator(&topology, &believed_topology.graph, &fabric,
                      strategy.get(), options, streams.link);
  simulator.set_trace(trace);
  for (auto& message : messages) {
    simulator.schedule_publish(std::move(message));
  }
  simulator.run();
  return collect(simulator.collector(), simulator.now());
}

}  // namespace bdps
