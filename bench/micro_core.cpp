// Microbenchmarks for the remaining hot paths: the event heap, the Gaussian
// math and the RNG (every send samples a truncated normal).
#include <benchmark/benchmark.h>

#include "common/math.h"
#include "common/random.h"
#include "sim/event_queue.h"

namespace {

using namespace bdps;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1e6);
  for (auto _ : state) {
    EventQueue q;
    for (const double t : times) {
      Event e;
      e.time = t;
      q.push(std::move(e));
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(65536);

// A simulated hop's event mix at a steady queue depth: each pop advances
// the clock and pushes one child, in turn an arrival at now, a PD expiry at
// now + PD and a send completion at now + a random duration (sim_storm's
// 1 : 1 : 1 mix).  Items are pops.
void BM_EventQueueHopMix(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  constexpr TimeMs kPd = 2.0;
  Rng rng(1);
  std::vector<double> durations(4096);
  for (auto& d : durations) d = rng.uniform(0.5, 400.0);
  EventQueue q;
  for (std::size_t i = 0; i < depth; ++i) {
    Event e;
    e.time = durations[i % durations.size()];
    e.type = EventType::kSendComplete;
    q.push(std::move(e));
  }
  std::size_t step = 0;
  for (auto _ : state) {
    Event popped = q.pop();
    const TimeMs now = popped.time;
    benchmark::DoNotOptimize(popped);
    Event child;
    switch (step % 3) {
      case 0:
        child.time = now;
        child.type = EventType::kArrival;
        break;
      case 1:
        child.time = now + kPd;
        child.type = EventType::kProcessed;
        break;
      default:
        child.time = now + durations[step % durations.size()];
        child.type = EventType::kSendComplete;
        break;
    }
    ++step;
    q.push(std::move(child));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHopMix)->Arg(400)->Arg(65536);

void BM_NormalCdf(benchmark::State& state) {
  double z = -6.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(normal_cdf(z));
    z += 0.001;
    if (z > 6.0) z = -6.0;
  }
}
BENCHMARK(BM_NormalCdf);

void BM_NormalQuantile(benchmark::State& state) {
  double p = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(normal_quantile(p));
    p += 0.0001;
    if (p >= 0.999) p = 0.001;
  }
}
BENCHMARK(BM_NormalQuantile);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

void BM_RngNormal(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal(75.0, 20.0));
}
BENCHMARK(BM_RngNormal);

void BM_RngTruncatedNormal(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.truncated_normal(75.0, 20.0, 0.0));
  }
}
BENCHMARK(BM_RngTruncatedNormal);

}  // namespace

BENCHMARK_MAIN();
