// Microbenchmark: sharded engine (sim/parallel/) vs the sequential engine.
//
// One iteration = one complete dense scale-free simulation (the workload
// where one run is too big for one thread): 512 or 4096 brokers,
// 4 links/broker, online estimation on, EBPC scheduling, at 60 msgs/min
// per publisher — sustained heavy traffic, so queues stay deep and the
// per-event scheduling/matching work dominates engine bookkeeping.  The
// argument pair is (brokers, shards); shards = 0 is the sequential
// Simulator baseline the speedups in BENCH_pr4.json are measured against.
// Collector output is bitwise identical across every row of this sweep
// (golden-pinned), so the ratio is pure engine overhead vs parallelism.
// tools/parallel_speedup runs the same configuration with the engine's
// critical-path accounting (the honest number on busy or few-core hosts).
// The `kills` rows add brokers/16 random terminal link kills: each kill is
// a fault batch the sharded engine applies at a window barrier.
#include <benchmark/benchmark.h>

#include "experiment/paper.h"
#include "experiment/runner.h"

namespace {

using namespace bdps;

SimConfig dense_config(std::size_t brokers, std::size_t shards) {
  SimConfig config =
      paper_base_config(ScenarioKind::kSsd, 60.0, StrategyKind::kEbpc, 1);
  config.topology = TopologyKind::kScaleFree;
  config.broker_count = brokers;
  config.scale_free_edges_per_node = 4;
  config.publisher_count = 8;
  config.subscriber_count = brokers * 4;
  config.online_estimation = true;
  config.workload.duration = minutes(1.0);
  config.shards = shards;
  return config;
}

void BM_ParallelDenseScaleFree(benchmark::State& state) {
  const auto brokers = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const SimConfig config = dense_config(brokers, shards);
  std::size_t receptions = 0;
  for (auto _ : state) {
    const SimResult r = run_simulation(config);
    receptions += r.receptions;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(receptions));
  state.SetLabel(shards == 0 ? "sequential"
                             : "P=" + std::to_string(shards));
}

void BM_ParallelDenseScaleFreeKills(benchmark::State& state) {
  const auto brokers = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  SimConfig config = dense_config(brokers, shards);
  config.random_link_failures = brokers / 16;
  std::size_t receptions = 0;
  std::size_t lost = 0;
  for (auto _ : state) {
    const SimResult r = run_simulation(config);
    receptions += r.receptions;
    lost += r.lost_copies;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(receptions));
  state.counters["lost/iter"] = benchmark::Counter(
      static_cast<double>(lost), benchmark::Counter::kAvgIterations);
  state.SetLabel(shards == 0 ? "sequential"
                             : "P=" + std::to_string(shards));
}

BENCHMARK(BM_ParallelDenseScaleFree)
    ->ArgNames({"brokers", "shards"})
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Args({512, 8})
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({4096, 2})
    ->Args({4096, 4})
    ->Args({4096, 8})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_ParallelDenseScaleFreeKills)
    ->ArgNames({"brokers", "shards"})
    ->Args({512, 0})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
