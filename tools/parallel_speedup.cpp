// Sharded-engine speedup probe for BENCH_pr4.json.
//
// Runs the dense scale-free workload (micro_parallel_sim's configuration)
// through the sequential engine and through ParallelSimulator at a sweep of
// shard counts, verifying bitwise-identical collector output, and reports:
//
//   * wall time per engine (what a multi-core host experiences directly),
//   * the engine's per-thread-CPU accounting: total lane work, per-round
//     critical path (slowest lane per window, summed) and the serial
//     merge cost — from which the modeled P-core wall
//     `critical_path + merge` and the modeled speedup
//     `sequential_wall / modeled_wall` are derived.
//
// The modeled number is the honest headline on hosts without P free cores
// (CPU clocks are immune to timeslicing); on an idle multi-core machine,
// measured wall converges to the model minus barrier overhead.
//
// Exits 1 when a row did not run the configuration it claims: output
// diverged from the sequential engine, the shard plan's count differs from
// the requested one (clamped to [1, brokers]), or a P > 1 row ran no
// window round or cut no edge.
//
//   ./build-bench/parallel_speedup [brokers=4096] [minutes=1] [shards=...]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <vector>

#include "experiment/paper.h"
#include "experiment/runner.h"
#include "routing/fabric.h"
#include "sim/parallel/parallel_simulator.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace {

using namespace bdps;

double wall_ms() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

struct Rig {
  Topology topology;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> strategy;
  SimulatorOptions options;
  Rng link_rng{0};
  std::vector<std::shared_ptr<const Message>> messages;

  explicit Rig(const SimConfig& config) {
    // Mirrors run_simulation's setup so results line up with the runner.
    Rng root(config.seed);
    Rng topology_rng = root.split();
    Rng workload_rng = root.split();
    link_rng = root.split();
    topology = build_topology(topology_rng, config);
    std::vector<Subscription> subscriptions =
        generate_subscriptions(workload_rng, config.workload, topology);
    fabric = std::make_unique<RoutingFabric>(topology,
                                             std::move(subscriptions));
    strategy = make_strategy(config.strategy, config.ebpc_weight);
    options.processing_delay = config.processing_delay;
    options.purge = config.purge;
    options.horizon = config.workload.duration + config.drain_grace;
    options.online_estimation = config.online_estimation;
    messages = generate_messages(workload_rng, config.workload,
                                 topology.publisher_count());
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t brokers = 4096;
  double window_minutes = 1.0;
  double rate_per_min = 60.0;
  std::vector<std::size_t> shard_counts = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "brokers") brokers = std::strtoull(value.c_str(), nullptr, 10);
    if (key == "minutes") window_minutes = std::strtod(value.c_str(), nullptr);
    if (key == "rate") rate_per_min = std::strtod(value.c_str(), nullptr);
    if (key == "shards") {
      shard_counts.clear();
      for (std::size_t pos = 0; pos < value.size();) {
        shard_counts.push_back(std::strtoull(value.c_str() + pos, nullptr, 10));
        pos = value.find(',', pos);
        if (pos == std::string::npos) break;
        ++pos;
      }
    }
  }

  SimConfig config =
      paper_base_config(ScenarioKind::kSsd, rate_per_min, StrategyKind::kEbpc, 1);
  config.topology = TopologyKind::kScaleFree;
  config.broker_count = brokers;
  config.scale_free_edges_per_node = 4;
  config.publisher_count = 8;
  config.subscriber_count = brokers * 4;
  config.online_estimation = true;
  config.workload.duration = minutes(window_minutes);

  const Rig rig(config);

  // Sequential baseline.
  double sequential_wall;
  double sequential_earning;
  std::size_t sequential_receptions;
  {
    Simulator simulator(&rig.topology, &rig.topology.graph, rig.fabric.get(),
                        rig.strategy.get(), rig.options, rig.link_rng);
    for (const auto& message : rig.messages) {
      simulator.schedule_publish(message);
    }
    const double start = wall_ms();
    simulator.run();
    sequential_wall = wall_ms() - start;
    sequential_earning = simulator.collector().earning();
    sequential_receptions = simulator.collector().receptions();
  }
  std::printf(
      "dense scale-free: %zu brokers, %.0f min window, %zu receptions\n"
      "sequential engine: %.1f ms wall\n\n",
      brokers, window_minutes, sequential_receptions, sequential_wall);
  std::printf(
      "%6s %10s %10s %12s %12s %9s %8s %13s %13s\n", "P", "wall_ms",
      "lane_ms", "critical_ms", "serial_ms", "rounds", "cut", "modeled_ms",
      "modeled_x");

  for (const std::size_t shards : shard_counts) {
    SimulatorOptions options = rig.options;
    options.shards = shards;
    ParallelSimulator simulator(&rig.topology, &rig.topology.graph,
                                rig.fabric.get(), rig.strategy.get(), options,
                                rig.link_rng);
    for (const auto& message : rig.messages) {
      simulator.schedule_publish(message);
    }
    const double start = wall_ms();
    simulator.run();
    const double wall = wall_ms() - start;
    if (simulator.collector().earning() != sequential_earning ||
        simulator.collector().receptions() != sequential_receptions) {
      std::fprintf(stderr, "FATAL: P=%zu output diverged\n", shards);
      return 1;
    }
    const auto& stats = simulator.stats();
    const std::size_t expected_shards =
        std::min(std::max<std::size_t>(shards, 1), brokers);
    const std::size_t cut_edges = simulator.plan().cut_edges().size();
    if (simulator.plan().shard_count() != expected_shards) {
      std::fprintf(stderr, "FATAL: P=%zu planned %zu shards, expected %zu\n",
                   shards, simulator.plan().shard_count(), expected_shards);
      return 1;
    }
    if (expected_shards > 1 && (stats.rounds == 0 || cut_edges == 0)) {
      std::fprintf(stderr, "FATAL: P=%zu ran %zu rounds over %zu cut edges\n",
                   shards, stats.rounds, cut_edges);
      return 1;
    }
    const double serial = stats.merge_ms + stats.horizon_ms;
    const double modeled = stats.critical_path_ms + serial;
    std::printf("%6zu %10.1f %10.1f %12.1f %12.1f %9zu %8zu %13.1f %13.2f\n",
                shards, wall, stats.worker_cpu_ms, stats.critical_path_ms,
                serial, stats.rounds, cut_edges, modeled,
                sequential_wall / modeled);
    std::printf("       bound_ms=%.1f shard_cpu=[", stats.bound_ms);
    for (const double ms : stats.shard_cpu_ms) std::printf(" %.0f", ms);
    std::printf(" ]\n");
  }
  return 0;
}
