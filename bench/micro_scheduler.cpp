// Microbenchmark: cost of one scheduling decision per strategy.
//
// `pick` runs every time a link frees up; EB/PC/EBPC evaluate a normal CDF
// per (message, target) pair, so their cost scales with queue depth x
// fan-out while FIFO/RL stay cheap.
#include <benchmark/benchmark.h>

#include "scheduling/purge.h"
#include "scheduling/scheduler.h"

namespace {

using namespace bdps;

struct Rig {
  std::vector<std::unique_ptr<Subscription>> subs;
  std::vector<std::unique_ptr<SubscriptionEntry>> entries;
  std::vector<QueuedMessage> queue;
  SchedulingContext context{600000.0, 3750.0};

  Rig(std::size_t queue_depth, std::size_t targets_per_message) {
    Rng rng(1);
    for (std::size_t m = 0; m < queue_depth; ++m) {
      const TimeMs age = rng.uniform(0.0, 30000.0);
      auto message = std::make_shared<Message>(
          static_cast<MessageId>(m), 0, context.now - age, 50.0,
          std::vector<Attribute>{});
      // Enqueued when published: distinct enqueue instants, as in a real
      // queue (identical ones would make every pick a pure tie scan).
      QueuedMessage queued{std::move(message), context.now - age, {}};
      for (std::size_t t = 0; t < targets_per_message; ++t) {
        auto sub = std::make_unique<Subscription>();
        sub->allowed_delay = seconds(10.0 + 10.0 * rng.uniform_index(5));
        sub->price = 1.0 + rng.uniform_index(3);
        auto entry = std::make_unique<SubscriptionEntry>();
        entry->subscription = sub.get();
        entry->path = PathStats{2, rng.uniform(100.0, 300.0), 800.0};
        queued.targets.push_back(entry.get());
        subs.push_back(std::move(sub));
        entries.push_back(std::move(entry));
      }
      // Fold the scoring kernel (PD 2 ms) as OutputQueue::enqueue does, so
      // the timed loops measure the steady-state pick/purge path.
      precompute_scores(queued, 2.0);
      queue.push_back(std::move(queued));
    }
  }
};

void run_pick(benchmark::State& state, StrategyKind kind) {
  const Rig rig(static_cast<std::size_t>(state.range(0)),
                static_cast<std::size_t>(state.range(1)));
  const auto scheduler = make_strategy(kind, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler->reference_pick(rig.queue, rig.context));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_PickFifo(benchmark::State& s) { run_pick(s, StrategyKind::kFifo); }
void BM_PickRl(benchmark::State& s) {
  run_pick(s, StrategyKind::kRemainingLifetime);
}
void BM_PickEb(benchmark::State& s) { run_pick(s, StrategyKind::kEb); }
void BM_PickPc(benchmark::State& s) { run_pick(s, StrategyKind::kPc); }
void BM_PickEbpc(benchmark::State& s) { run_pick(s, StrategyKind::kEbpc); }

#define QUEUE_ARGS ->Args({8, 10})->Args({64, 10})->Args({512, 10})->Args({64, 40})
BENCHMARK(BM_PickFifo) QUEUE_ARGS;
BENCHMARK(BM_PickRl) QUEUE_ARGS;
BENCHMARK(BM_PickEb) QUEUE_ARGS;
BENCHMARK(BM_PickPc) QUEUE_ARGS;
BENCHMARK(BM_PickEbpc) QUEUE_ARGS;

void BM_PurgeScan(benchmark::State& state) {
  const auto scheduler = make_strategy(StrategyKind::kEb);
  (void)scheduler;
  PurgePolicy policy;
  for (auto _ : state) {
    state.PauseTiming();
    Rig rig(static_cast<std::size_t>(state.range(0)), 10);
    state.ResumeTiming();
    benchmark::DoNotOptimize(purge_queue(rig.queue, rig.context, policy));
  }
}
BENCHMARK(BM_PurgeScan)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
