// Live broker overlay — in-process reactor vs. socket-backed shards.
//
// Runs the same OutputQueue + SchedulerState engine as the simulator under
// real concurrency, in both execution modes: the event-driven reactor
// (N workers, each with one timer heap) with the whole overlay in one
// process, and the distributed socket runtime — here as a 2-shard
// in-process cluster whose cut edges ride local AF_UNIX trunks
// (net/endpoint.h), exactly what tools/brokerd runs one-shard-per-process.
// The experiment/live.h harness builds a SimConfig-shaped mesh workload,
// paces publishes to their generated instants on a scaled clock, and
// reports merged totals.
//
// Demonstrates: LiveRunConfig/run_live, the `mode`, `workers` and `shards`
// knobs, and that the sharded overlay delivers the same workload totals as
// the single-process pool.
#include <cstdio>

#include "experiment/live.h"

using namespace bdps;

namespace {

LiveRunConfig demo_config(StrategyKind strategy, LiveMode mode,
                          std::size_t workers) {
  LiveRunConfig config;
  config.sim.seed = 42;
  config.sim.topology = TopologyKind::kRandomMesh;
  config.sim.broker_count = 12;
  config.sim.extra_edges = 8;
  config.sim.publisher_count = 2;
  config.sim.subscriber_count = 24;
  config.sim.strategy = strategy;
  config.sim.purge.epsilon = 0.0005;
  config.sim.workload.scenario = ScenarioKind::kSsd;
  config.sim.workload.duration = seconds(60.0);
  config.sim.workload.publishing_rate_per_min = 30.0;
  config.mode = mode;
  config.workers = workers;
  config.speedup = 300.0;  // 300 simulated ms per real ms.
  if (mode == LiveMode::kSocket) config.shards = 2;
  return config;
}

}  // namespace

int main() {
  std::printf("live broker overlay (300x scaled clock)\n");
  std::printf("12 brokers / 2 publishers / 24 subscribers, SSD workload\n\n");
  std::printf("%-5s %-14s %8s %8s %8s %11s %8s %8s\n", "strat", "mode",
              "links", "workers", "trunked", "deliveries", "purged",
              "wall ms");
  for (const StrategyKind strategy :
       {StrategyKind::kEb, StrategyKind::kFifo}) {
    for (const LiveMode mode : {LiveMode::kReactor, LiveMode::kSocket}) {
      const LiveRunResult r =
          run_live(demo_config(strategy, mode, /*workers=*/0));
      std::printf("%-5s %-14s %8zu %8zu %8llu %5zu/%-5zu %8zu %8.1f\n",
                  strategy_name(strategy).c_str(),
                  mode == LiveMode::kReactor ? "reactor" : "socket x2",
                  r.links, r.workers,
                  static_cast<unsigned long long>(r.trunk_forwards),
                  r.valid_deliveries, r.deliveries, r.purged, r.wall_ms);
    }
  }
  std::printf(
      "\nreactor: brokers ride N hardware-sized workers; every PD and\n"
      "transmission is a timer in its worker's heap, links pop OutputQueue\n"
      "picks inline on expiry.  socket x2: the same engine split across two\n"
      "shards — a transmission completing toward a remote broker crosses a\n"
      "local socket trunk (cumulative-ack reliability, `trunked` counts\n"
      "those copies) instead of a worker mailbox.\n");
  return 0;
}
