// Live-runtime throughput vs. link count, reactor vs. socket shards.
//
// The workload is the star-of-chains broom (topology/builders.h): every
// message floods every chain, so one published message costs exactly
// `links` completed transmissions — items/s below is link-transmissions
// per wall second.  The clock runs at 20000x with sub-millisecond link
// times, so wall time measures runtime overhead (wakeups, locking, timer
// dispatch — and for socket rows, the trunk round trip), not sleeping.
//
// Reactor rows run the whole overlay in one process.  Socket rows split
// the same overlay into a 2-shard in-process cluster: the brooms' cut
// edges cross trunks (net/endpoint.h frame + cumulative-ack protocol), so
// the reactor/socket gap at each size is the wire cost the distributed
// daemon (tools/brokerd) pays per transmission.  `socket_x2` trunks use
// the default peer hosts, i.e. local AF_UNIX sockets; `socket_x2_tcp`
// names 127.0.0.1 for every peer, which keeps the cross-host TCP path
// measured.  A socket row whose trunks ran over the other kind fails.
// The curve is recorded in BENCH_pr7.json (see tools/live_scaling for the
// ceiling probe with failure handling).
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "experiment/live.h"
#include "routing/fabric.h"
#include "topology/builders.h"
#include "topology/shard_plan.h"

namespace {

using namespace bdps;

constexpr int kMessages = 4;

struct Rig {
  Topology topo;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> strategy;
  std::vector<std::uint32_t> broker_shard;  // 2-way split for socket rows.
};

/// links = chains * depth with a square-ish broom; fabrics are expensive
/// to build, so cache one rig per link count across iterations.
const Rig& rig_for(std::size_t links) {
  static std::map<std::size_t, std::unique_ptr<Rig>> cache;
  auto& slot = cache[links];
  if (!slot) {
    std::size_t chains = 1;
    while (chains * chains < links) chains *= 2;
    const std::size_t depth = links / chains;
    auto rig = std::make_unique<Rig>();
    rig->topo = build_star_of_chains(chains, depth, LinkParams{0.2, 0.02});
    rig->fabric = std::make_unique<RoutingFabric>(
        rig->topo, flood_subscriptions(rig->topo));
    rig->strategy = make_strategy(StrategyKind::kEb);
    rig->broker_shard = greedy_edge_cut(rig->topo.graph, 2);
    slot = std::move(rig);
  }
  return *slot;
}

LiveOptions base_options() {
  LiveOptions opt;
  opt.processing_delay = 0.1;
  opt.speedup = 20000.0;
  return opt;
}

void check_deliveries(benchmark::State& state, const Rig& rig,
                      std::size_t delivered) {
  if (delivered !=
      static_cast<std::size_t>(kMessages) * rig.topo.subscriber_count()) {
    state.SkipWithError("lost deliveries");
  }
}

void run_once_reactor(benchmark::State& state, const Rig& rig) {
  LiveNetwork net(&rig.topo, rig.fabric.get(), rig.strategy.get(),
                  base_options());
  net.start();
  const Message tick(0, 0, 0.0, 1.0, {{"A1", Value(1.0)}}, kNoDeadline);
  for (int i = 0; i < kMessages; ++i) net.publish(0, tick);
  net.drain();
  net.stop();
  check_deliveries(state, rig, net.stats().deliveries().size());
}

/// `peer_host` is every peer's host: "" = same host (AF_UNIX trunks).
void run_once_socket(benchmark::State& state, const Rig& rig,
                     const std::string& peer_host) {
  std::vector<std::unique_ptr<LiveNetwork>> nets;
  std::vector<LiveNetwork*> raw;
  for (int shard = 0; shard < 2; ++shard) {
    LiveOptions opt = base_options();
    opt.mode = LiveMode::kSocket;
    opt.net.shard = shard;
    opt.net.shard_count = 2;
    opt.net.broker_shard = rig.broker_shard;
    opt.net.peer_hosts = {peer_host, peer_host};
    nets.push_back(std::make_unique<LiveNetwork>(
        &rig.topo, rig.fabric.get(), rig.strategy.get(), opt));
    raw.push_back(nets.back().get());
  }
  const std::vector<std::uint16_t> ports = {nets[0]->trunk_port(),
                                            nets[1]->trunk_port()};
  for (const auto& net : nets) net->connect_trunks(ports);
  for (const auto& net : nets) net->start();
  for (const auto& net : nets) {
    if (!net->wait_trunks(std::chrono::milliseconds(5000))) {
      state.SkipWithError("trunks never came up");
      return;
    }
  }
  const Message tick(0, 0, 0.0, 1.0, {{"A1", Value(1.0)}}, kNoDeadline);
  LiveNetwork* hub_home = nets[0]->serves(0) ? raw[0] : raw[1];
  for (int i = 0; i < kMessages; ++i) hub_home->publish(0, tick);
  drain_live_cluster(raw);
  // Each shard's dialed and accepted trunk: 4 sockets, all AF_UNIX or none.
  const int local = nets[0]->local_trunks() + nets[1]->local_trunks();
  if (local != (peer_host.empty() ? 4 : 0)) {
    state.SkipWithError("trunks ran over the wrong socket kind");
  }
  std::size_t delivered = 0;
  for (const auto& net : nets) {
    net->stop();
    delivered += net->stats().deliveries().size();
  }
  check_deliveries(state, rig, delivered);
}

void BM_LiveRuntime(benchmark::State& state, LiveMode mode,
                    const std::string& peer_host) {
  const auto links = static_cast<std::size_t>(state.range(0));
  const Rig& rig = rig_for(links);
  for (auto _ : state) {
    if (mode == LiveMode::kReactor) {
      run_once_reactor(state, rig);
    } else {
      run_once_socket(state, rig, peer_host);
    }
  }
  // One message = `links` completed transmissions (the flood covers every
  // chain hop).
  state.SetItemsProcessed(state.iterations() * kMessages *
                          static_cast<std::int64_t>(links));
}

}  // namespace

// UseRealTime: the runtime spends most of its life parked in waits, so
// CPU-time rates would flatter both modes — items/s must be wall-based.
BENCHMARK_CAPTURE(BM_LiveRuntime, reactor, LiveMode::kReactor, "")
    ->ArgName("links")
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_LiveRuntime, socket_x2, LiveMode::kSocket, "")
    ->ArgName("links")
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_LiveRuntime, socket_x2_tcp, LiveMode::kSocket,
                  "127.0.0.1")
    ->ArgName("links")
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
