// Microbenchmark: the sharded matching fabric under churn.
//
// Three costs matter at million-subscription scale: match latency against
// a populated fabric, add/remove throughput (covering probes + snapshot
// publication), and match latency *while* a writer churns.  Rows use the
// Zipf churn workload (workload/generator.h) so covering actually engages;
// the reference counting index runs the same corpus for the baseline.
// The full 1M-subscription sweep lives in tools/match_scaling (this bench
// keeps rows small enough for smoke registration).
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>
#include <vector>

#include "matching/program/simd.h"
#include "matching/sharded_index.h"
#include "message/index.h"
#include "workload/generator.h"

namespace {

using bdps::Message;
using bdps::SubscriptionIndex;
using bdps::ChurnWorkload;
using bdps::ChurnWorkloadConfig;
using bdps::matching::MatchFabric;
using bdps::matching::MatchFabricOptions;
using bdps::matching::MatchScratch;

ChurnWorkload make_workload() {
  ChurnWorkloadConfig config;
  config.seed = 7;
  return ChurnWorkload(config);
}

void BM_FabricMatch(benchmark::State& state) {
  ChurnWorkload workload = make_workload();
  MatchFabricOptions options;
  options.covering = state.range(1) != 0;
  options.compile_hot_hits = static_cast<std::size_t>(state.range(2));
  MatchFabric fabric(options);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    fabric.add(workload.next_filter());
  }
  std::vector<Message> probes;
  for (int i = 0; i < 64; ++i) probes.push_back(workload.next_message());
  MatchScratch scratch;
  // Warm the compile tier: hot roots cross compile_hot_hits and get their
  // programs built before the timed loop (no-op with hits=0).
  for (std::size_t w = 0; w < probes.size(); ++w) {
    benchmark::DoNotOptimize(fabric.match(probes[w], scratch));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric.match(probes[i++ % probes.size()],
                                          scratch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  // The label names the SIMD kernel the batch evaluator dispatched (the
  // same compiled tier runs with hits=0, it just never engages).
  state.SetLabel(bdps::matching::program::simd::active_kernel_name());
  const MatchFabric::Stats stats = fabric.stats();
  state.counters["compression"] = stats.compression();
  state.counters["compiled_roots"] =
      static_cast<double>(stats.compiled_roots);
  state.counters["vm_evals"] = static_cast<double>(stats.vm_member_evals);
  state.counters["vm_batch_evals"] =
      static_cast<double>(stats.vm_batch_evals);
}
BENCHMARK(BM_FabricMatch)
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}, {0, 4}})
    ->ArgNames({"subs", "cover", "hits"});

void BM_ReferenceIndexMatch(benchmark::State& state) {
  ChurnWorkload workload = make_workload();
  SubscriptionIndex index;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    index.add(workload.next_filter());
  }
  index.finalize();
  std::vector<Message> probes;
  for (int i = 0; i < 64; ++i) probes.push_back(workload.next_message());
  SubscriptionIndex::Scratch scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.match(probes[i++ % probes.size()],
                                         scratch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReferenceIndexMatch)
    ->Arg(1000)->Arg(10000)->Arg(100000)
    ->ArgNames({"subs"});

void BM_FabricChurn(benchmark::State& state) {
  // Steady-state add/remove throughput at a held population: every
  // iteration is one remove + one add (tombstone, cover probe, snapshot
  // publication, amortised rebuild).
  ChurnWorkload workload = make_workload();
  MatchFabric fabric;
  std::vector<bdps::matching::RowId> live;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    live.push_back(fabric.add(workload.next_filter()));
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    fabric.remove(live[cursor]);
    live[cursor] = fabric.add(workload.next_filter());
    cursor = (cursor + 1) % live.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricChurn)->Arg(10000)->Arg(100000)->ArgNames({"subs"});

void BM_FabricMatchUnderChurn(benchmark::State& state) {
  // Reader latency with a concurrent writer replacing ~rows continuously —
  // the live broker's situation.  The writer thread runs free; the timed
  // loop is the reader.
  ChurnWorkload workload = make_workload();
  MatchFabric fabric;
  std::vector<bdps::matching::RowId> live;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    live.push_back(fabric.add(workload.next_filter()));
  }
  std::vector<Message> probes;
  for (int i = 0; i < 64; ++i) probes.push_back(workload.next_message());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    ChurnWorkloadConfig config;
    config.seed = 1234;
    ChurnWorkload churn(config);
    std::size_t cursor = 0;
    while (!stop.load(std::memory_order_acquire)) {
      fabric.remove(live[cursor]);
      live[cursor] = fabric.add(churn.next_filter());
      cursor = (cursor + 1) % live.size();
    }
  });
  MatchScratch scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fabric.match(probes[i++ % probes.size()],
                                          scratch));
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  state.SetItemsProcessed(state.iterations() * state.range(0));
  // Default options compile hot roots mid-churn; surface how many programs
  // were (re)built while the reader was being timed, how often the batch
  // evaluator ran, and which SIMD kernel dispatched.
  state.SetLabel(bdps::matching::program::simd::active_kernel_name());
  const MatchFabric::Stats stats = fabric.stats();
  state.counters["compiled_roots"] =
      static_cast<double>(stats.compiled_roots);
  state.counters["compiles"] = static_cast<double>(stats.compiles);
  state.counters["vm_batch_evals"] =
      static_cast<double>(stats.vm_batch_evals);
}
BENCHMARK(BM_FabricMatchUnderChurn)
    ->Arg(10000)->Arg(100000)
    ->ArgNames({"subs"})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
