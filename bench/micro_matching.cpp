// Microbenchmark: counting-index matching vs brute-force filter scans, and
// the broker's whole processing step on a sim_storm-shaped overlay.
//
// The routing fabric matches every message once against the counting
// index over all subscriptions, where it enters the overlay; brokers then
// select their table rows from that stamp (BM_BrokerProcess), or match on
// the spot when the message is unstamped (BM_BrokerProcessFirstHop).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "broker/broker.h"
#include "common/random.h"
#include "experiment/paper.h"
#include "message/index.h"
#include "routing/fabric.h"
#include "workload/generator.h"

namespace {

using bdps::Filter;
using bdps::Message;
using bdps::Op;
using bdps::Rng;
using bdps::SubscriptionIndex;
using bdps::Value;

std::vector<Filter> make_filters(std::size_t count, Rng& rng) {
  std::vector<Filter> filters;
  filters.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Filter f;
    f.where("A1", Op::kLt, Value(rng.uniform(0.0, 10.0)));
    f.where("A2", Op::kLt, Value(rng.uniform(0.0, 10.0)));
    filters.push_back(std::move(f));
  }
  return filters;
}

Message make_probe(Rng& rng) {
  return Message(1, 0, 0.0, 50.0,
                 {{"A1", Value(rng.uniform(0.0, 10.0))},
                  {"A2", Value(rng.uniform(0.0, 10.0))}});
}

void BM_IndexMatch(benchmark::State& state) {
  Rng rng(1);
  const auto filters = make_filters(static_cast<std::size_t>(state.range(0)),
                                    rng);
  SubscriptionIndex index;
  for (const Filter& f : filters) index.add(f);
  const Message probe = make_probe(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.match(probe));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IndexMatch)->Arg(16)->Arg(160)->Arg(1600)->Arg(16000);

void BM_BruteForceMatch(benchmark::State& state) {
  Rng rng(1);
  const auto filters = make_filters(static_cast<std::size_t>(state.range(0)),
                                    rng);
  const Message probe = make_probe(rng);
  for (auto _ : state) {
    std::vector<std::size_t> matched;
    for (std::size_t i = 0; i < filters.size(); ++i) {
      if (filters[i].matches(probe)) matched.push_back(i);
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BruteForceMatch)->Arg(16)->Arg(160)->Arg(1600)->Arg(16000);

void BM_IndexAdd(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    const auto filters =
        make_filters(static_cast<std::size_t>(state.range(0)), rng);
    SubscriptionIndex index;
    state.ResumeTiming();
    for (const Filter& f : filters) index.add(f);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_IndexAdd)->Arg(160)->Arg(1600);

/// Broker::process (row selection, fan-out, enqueue with score folding) at
/// the busiest broker of sim_storm's overlay: fig. 3's layers scaled to
/// 4/8/36/80 brokers, 12 SSD subscribers per edge broker, EBPC, the
/// fabric repaired once by downing every link of the storm's layer-3
/// epicenter, so the tables carry disabled rows.  Each iteration processes
/// the next of the run's messages at its publish instant through a caller
/// scratch (the engines' overload) and empties the slots it enqueued on,
/// so queues stay one copy deep.  With `stamped` the messages carry the
/// fabric's stamp, made before timing starts, as the engines deliver them
/// to every broker.  Without it each process first matches the message
/// against the global index on the spot: the cost the engines pay once
/// per message at its first hop, and the path of a message that carries
/// no stamp of this fabric.
void broker_process(benchmark::State& state, bool stamped) {
  using namespace bdps;
  SimConfig config =
      paper_base_config(ScenarioKind::kSsd, 9.0, StrategyKind::kEbpc, 41);
  config.paper_topology.layer1 = 4;
  config.paper_topology.layer2 = 8;
  config.paper_topology.layer3 = 36;
  config.paper_topology.layer4 = 80;
  config.paper_topology.subscribers_per_edge_broker = 12;
  config.workload.duration = minutes(10.0);
  Rng root(config.seed);
  Rng topology_rng = root.split();
  Rng workload_rng = root.split();
  const Topology topology = build_topology(topology_rng, config);
  FabricOptions options;
  options.repairable = true;
  RoutingFabric fabric(
      topology,
      generate_subscriptions(workload_rng, config.workload, topology),
      options);
  const auto messages = generate_messages(workload_rng, config.workload,
                                          topology.publisher_count());
  const auto epicenter =
      static_cast<BrokerId>(4 + config.paper_topology.layer2);
  std::vector<EdgeId> down;
  for (const EdgeId e : topology.graph.out_edges(epicenter)) {
    down.push_back(e);
    down.push_back(topology.graph.edge_id(topology.graph.edge(e).to,
                                          epicenter));
  }
  if (fabric.apply_link_state(down, {}) == 0) {
    state.SkipWithError("repair rewrote no row");
    return;
  }

  BrokerId busiest = 0;
  for (BrokerId b = 0; b < static_cast<BrokerId>(fabric.broker_count());
       ++b) {
    if (fabric.table(b).size() > fabric.table(busiest).size()) busiest = b;
  }
  const auto strategy = make_strategy(config.strategy, config.ebpc_weight);
  Broker broker(busiest, &fabric, &topology.graph, strategy.get(),
                config.processing_delay, /*queues_for_all_links=*/true);
  SubscriptionIndex::Scratch scratch;
  if (stamped) {
    for (const auto& message : messages) fabric.stamp(*message, scratch);
  }
  std::size_t next = 0;
  std::size_t copies = 0;
  for (auto _ : state) {
    const auto& message = messages[next];
    next = next + 1 == messages.size() ? 0 : next + 1;
    const Broker::FanOut fan_out =
        broker.process(message, message->publish_time(), scratch);
    benchmark::DoNotOptimize(fan_out.local.data());
    copies += fan_out.enqueued.size();
    for (const Broker::QueueSlot slot : fan_out.enqueued) {
      broker.queue_at(slot).clear();
    }
  }
  state.counters["rows"] = static_cast<double>(fabric.table(busiest).size());
  state.counters["copies_per_msg"] = benchmark::Counter(
      static_cast<double>(copies), benchmark::Counter::kAvgIterations);
}

void BM_BrokerProcess(benchmark::State& state) {
  broker_process(state, /*stamped=*/true);
}
BENCHMARK(BM_BrokerProcess);

void BM_BrokerProcessFirstHop(benchmark::State& state) {
  broker_process(state, /*stamped=*/false);
}
BENCHMARK(BM_BrokerProcessFirstHop);

}  // namespace

BENCHMARK_MAIN();
