// Microbenchmark: steady-state dispatch cycle, incremental vs rescan.
//
// One iteration = what a busy output queue does at every link-free instant:
// enqueue one fresh copy, advance the clock, pick (and remove) the best
// message.  Two engines run the identical op stream:
//
//   * Incremental* — the stateful SchedulerState path (PR-2): FIFO/RL keep
//     an indexed heap on time-invariant keys; EB/PC/EBPC/LB skip rows whose
//     cached score bound cannot beat the running best.
//   * Rescan*      — the stateless Strategy::reference_pick argmax over the
//     precomputed kernel (the PR-1 baseline contract).
//
// Compare the same (strategy, depth, fan-out) pair across the two engines;
// items_processed counts queue rows per pick, as micro_scheduler does.
// Each iteration advances the queue's clock, so the queue's state depends
// on how many iterations ran: every row runs a fixed count
// (kCycleIterations), and every build times the same op sequence.
//
// BM_OutputQueueTakeNextPurge times the engine's whole send step instead:
// OutputQueue::take_next with the §5.4 purge on (paper defaults), EBPC,
// refilled to the depth before each take with young, mostly-kept rows
// (enqueue scores each, as it does for Broker::process).
#include <benchmark/benchmark.h>

#include "broker/output_queue.h"
#include "scheduling/purge.h"
#include "scheduling/scheduler.h"

namespace {

using namespace bdps;

/// Pre-built subscription entries reused by every generated row; only the
/// Message and its targets/scored vectors are allocated per enqueue (the
/// same work Broker::process does, and identical across both engines).
/// Rows come unscored; every queue scores them with PD 2 ms.
struct Rig {
  std::vector<std::unique_ptr<Subscription>> subs;
  std::vector<std::unique_ptr<SubscriptionEntry>> entries;
  Rng rng{1};
  std::size_t targets_per_message;
  MessageId next_id = 0;
  TimeMs max_age = 30000.0;

  explicit Rig(std::size_t targets_in) : targets_per_message(targets_in) {
    for (std::size_t t = 0; t < 64; ++t) {
      auto sub = std::make_unique<Subscription>();
      sub->allowed_delay = seconds(10.0 + 10.0 * rng.uniform_index(5));
      sub->price = 1.0 + rng.uniform_index(3);
      auto entry = std::make_unique<SubscriptionEntry>();
      entry->subscription = sub.get();
      entry->path = PathStats{2, rng.uniform(100.0, 300.0), 800.0};
      subs.push_back(std::move(sub));
      entries.push_back(std::move(entry));
    }
  }

  QueuedMessage make_row(TimeMs now) {
    const TimeMs age = rng.uniform(0.0, max_age);
    auto message = std::make_shared<Message>(
        next_id++, 0, now - age, 50.0, std::vector<Attribute>{});
    QueuedMessage queued{std::move(message), now, {}};
    for (std::size_t t = 0; t < targets_per_message; ++t) {
      queued.targets.push_back(
          entries[rng.uniform_index(entries.size())].get());
    }
    return queued;
  }
};

void run_cycle(benchmark::State& state, StrategyKind kind, bool incremental) {
  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  Rig rig(static_cast<std::size_t>(state.range(1)));
  const Strategy strategy(kind, 0.5);

  std::vector<QueuedMessage> queue;
  queue.reserve(depth + 1);
  const auto scheduler = strategy.make_state();
  TimeMs now = 600000.0;
  const auto enqueue = [&] {
    queue.push_back(rig.make_row(now));
    precompute_scores(queue.back(), 2.0);
    if (incremental) scheduler->on_enqueue(queue, queue.size() - 1);
  };
  for (std::size_t i = 0; i < depth; ++i) enqueue();

  for (auto _ : state) {
    now += 25.0;
    const SchedulingContext context{now, 3750.0};
    enqueue();
    const std::size_t pick = incremental
                                 ? scheduler->pick(queue, context)
                                 : strategy.reference_pick(queue, context);
    if (incremental) scheduler->on_remove(queue, pick);
    benchmark::DoNotOptimize(take_at(queue, pick));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_IncrementalFifo(benchmark::State& s) {
  run_cycle(s, StrategyKind::kFifo, true);
}
void BM_RescanFifo(benchmark::State& s) {
  run_cycle(s, StrategyKind::kFifo, false);
}
void BM_IncrementalRl(benchmark::State& s) {
  run_cycle(s, StrategyKind::kRemainingLifetime, true);
}
void BM_RescanRl(benchmark::State& s) {
  run_cycle(s, StrategyKind::kRemainingLifetime, false);
}
void BM_IncrementalEb(benchmark::State& s) {
  run_cycle(s, StrategyKind::kEb, true);
}
void BM_RescanEb(benchmark::State& s) { run_cycle(s, StrategyKind::kEb, false); }
void BM_IncrementalEbpc(benchmark::State& s) {
  run_cycle(s, StrategyKind::kEbpc, true);
}
void BM_RescanEbpc(benchmark::State& s) {
  run_cycle(s, StrategyKind::kEbpc, false);
}

void BM_OutputQueueTakeNextPurge(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  Rig rig(static_cast<std::size_t>(state.range(1)));
  rig.max_age = 2000.0;  // Deadlines are 10-50 s: most rows are kept.
  const Strategy strategy(StrategyKind::kEbpc, 0.5);
  OutputQueue queue(1, 0, LinkParams{150.0, 20.0}, &strategy, 2.0);
  const PurgePolicy policy;
  TimeMs now = 600000.0;
  PurgeStats stats;
  for (auto _ : state) {
    now += 25.0;
    while (queue.size() < depth) queue.enqueue(rig.make_row(now));
    benchmark::DoNotOptimize(
        queue.take_next(SchedulingContext{now, 3750.0}, policy, &stats));
  }
  state.counters["purged_per_take"] = benchmark::Counter(
      static_cast<double>(stats.expired + stats.hopeless) /
      static_cast<double>(state.iterations()));
}

/// Iterations of every row: 25 s of simulated queue time.
constexpr benchmark::IterationCount kCycleIterations = 1000;

#define CYCLE_ARGS                                                      \
  ->Args({64, 10})->Args({512, 10})->Args({4096, 10})->Args({512, 40}) \
      ->Iterations(kCycleIterations)
BENCHMARK(BM_IncrementalFifo) CYCLE_ARGS;
BENCHMARK(BM_RescanFifo) CYCLE_ARGS;
BENCHMARK(BM_IncrementalRl) CYCLE_ARGS;
BENCHMARK(BM_RescanRl) CYCLE_ARGS;
BENCHMARK(BM_IncrementalEb) CYCLE_ARGS;
BENCHMARK(BM_RescanEb) CYCLE_ARGS;
BENCHMARK(BM_IncrementalEbpc) CYCLE_ARGS;
BENCHMARK(BM_RescanEbpc) CYCLE_ARGS;
BENCHMARK(BM_OutputQueueTakeNextPurge)
    ->Args({1, 4})
    ->Args({4, 4})
    ->Args({64, 4})
    ->Iterations(kCycleIterations);

}  // namespace

BENCHMARK_MAIN();
