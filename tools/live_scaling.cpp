// Live-runtime link-ceiling probe — the numbers behind BENCH_pr7.json.
//
// Sweeps the star-of-chains broom over link counts and runs the same
// flood workload through both execution modes, recording wall time,
// sustained link-transmissions per second, thread count, and whether the
// mode completed at all.  Reactor rows run the whole overlay in one
// process; socket rows split it into a 2-shard in-process cluster whose
// cut edges ride same-host trunks (local AF_UNIX sockets) — the same
// transport the distributed daemon (tools/brokerd) runs
// one-shard-per-process, so the gap between the two curves is the wire
// cost per transmission.  Socket rows get a
// wall budget per row (default 120 s); once a row blows the budget or
// fails, larger rows are marked infeasible without being attempted.
// Reactor rows also sweep the `workers` knob at a mid scale.
//
//   ./live_scaling [budget_s=120] [messages=4]
//
// Output: one JSON object per line, plus a summary table on stderr.
// `threads` is measured, not assumed: the OS threads /proc/self/task gains
// while the mode runs.  `worker_slack_ns` is the timer slack of the mode's
// reactor workers, read after the timed part: each worker's reading of its
// own slack, and /proc/<tid>/timerslack_ns of every `bdps-w*` thread where
// the kernel allows it (reading another thread's slack needs
// CAP_SYS_NICE).  It is 1 when they wait for their timers exactly.
// `trunk_family` (socket rows) is the socket kind the trunks ran over, per
// getsockname: "unix" when every trunk socket of both shards was AF_UNIX,
// "tcp" when none was, "mixed" otherwise.
// Exits 1 when a socket row reports `completed` although no copy crossed a
// trunk — that row measured a single shard —, when a socket row's trunks
// were not all local although every peer host is the default, or when any
// row's workers report a slack other than 1 ns: those timings are not the
// model's.
#include <dirent.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "experiment/live.h"
#include "routing/fabric.h"
#include "runtime/reactor.h"
#include "runtime/timer_slack.h"
#include "topology/builders.h"
#include "topology/shard_plan.h"

using namespace bdps;

namespace {

struct Row {
  std::size_t chains = 0;
  std::size_t depth = 0;
  bool reactor_only = false;
};

struct Probe {
  std::size_t links = 0;
  std::string mode;
  std::size_t workers = 0;
  std::size_t threads = 0;  // OS threads the mode ran (measured).
  long worker_slack_ns = -1;  // What the workers' kernel timers allow.
  bool completed = false;
  std::string error;
  double wall_ms = 0.0;
  double tx_per_sec = 0.0;
  unsigned long long trunk_forwards = 0;  // Copies that crossed a trunk.
  std::string trunk_family;  // Socket rows: "unix", "tcp" or "mixed".
};

/// Threads in this process right now (entries of /proc/self/task).
std::size_t task_count() {
  std::size_t count = 0;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    closedir(dir);
  }
  return count;
}

/// task_count() once it holds still: a joined thread can stay listed for
/// a moment after pthread_join returns.
std::size_t settled_task_count() {
  std::size_t count = task_count();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::size_t again = task_count();
    if (again == count) break;
    count = again;
  }
  return count;
}

/// The timer slack of a mode's reactor workers: 1 when exactness took
/// effect, else the first other value seen.  Checks each worker's reading
/// of its own slack (`nets`, taken after stop) and, where the kernel lets
/// us read it, what /proc reported for every `bdps-w*` thread while the
/// mode ran (`seen`; another thread's slack needs CAP_SYS_NICE).
long worker_timer_slack(const std::vector<ThreadTimerSlack>& seen,
                        const std::vector<const LiveNetwork*>& nets) {
  std::vector<long> slacks;
  for (const LiveNetwork* net : nets) {
    const std::vector<long> own = net->worker_timer_slacks();
    slacks.insert(slacks.end(), own.begin(), own.end());
  }
  for (const ThreadTimerSlack& thread : seen) {
    if (thread.slack_ns >= 0) slacks.push_back(thread.slack_ns);
  }
  for (const long slack : slacks) {
    if (slack != ScopedTimerSlack::kExactNs) return slack;
  }
  return slacks.empty() ? -1 : ScopedTimerSlack::kExactNs;
}

LiveOptions probe_options(std::size_t workers) {
  LiveOptions opt;
  opt.processing_delay = 0.1;
  opt.speedup = 20000.0;
  opt.workers = workers;
  return opt;
}

Probe run_probe_reactor(const Topology& topo, const RoutingFabric& fabric,
                        const Strategy& strategy, std::size_t workers,
                        int messages) {
  Probe probe;
  probe.links = topo.graph.edge_count() / 2;  // Directed hub->leaf side.
  probe.mode = "reactor";
  try {
    LiveNetwork net(&topo, &fabric, &strategy, probe_options(workers));
    const std::size_t idle_tasks = settled_task_count();
    const auto start = std::chrono::steady_clock::now();
    net.start();
    probe.threads = task_count() - idle_tasks;
    const Message tick(0, 0, 0.0, 1.0, {{"A1", Value(1.0)}}, kNoDeadline);
    for (int i = 0; i < messages; ++i) net.publish(0, tick);
    net.drain();
    const auto end = std::chrono::steady_clock::now();
    const std::vector<ThreadTimerSlack> seen =
        thread_timer_slacks(kWorkerThreadPrefix);
    net.stop();
    probe.worker_slack_ns = worker_timer_slack(seen, {&net});
    probe.workers = net.worker_count();
    probe.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    probe.completed = net.stats().deliveries().size() ==
                      static_cast<std::size_t>(messages) *
                          topo.subscriber_count();
    if (!probe.completed) probe.error = "lost deliveries";
    probe.tx_per_sec = probe.wall_ms > 0.0
                           ? 1000.0 * static_cast<double>(messages) *
                                 static_cast<double>(net.link_count()) /
                                 probe.wall_ms
                           : 0.0;
  } catch (const std::exception& e) {
    probe.error = e.what();
  }
  return probe;
}

/// 2-shard in-process cluster over same-host trunks: the socket-mode row.
Probe run_probe_socket(const Topology& topo, const RoutingFabric& fabric,
                       const Strategy& strategy, int messages) {
  Probe probe;
  probe.links = topo.graph.edge_count() / 2;
  probe.mode = "socket_x2";
  try {
    const std::vector<std::uint32_t> broker_shard =
        greedy_edge_cut(topo.graph, 2);
    std::vector<std::unique_ptr<LiveNetwork>> nets;
    std::vector<LiveNetwork*> raw;
    for (int shard = 0; shard < 2; ++shard) {
      LiveOptions opt = probe_options(0);
      opt.mode = LiveMode::kSocket;
      opt.net.shard = shard;
      opt.net.shard_count = 2;
      opt.net.broker_shard = broker_shard;
      nets.push_back(
          std::make_unique<LiveNetwork>(&topo, &fabric, &strategy, opt));
      raw.push_back(nets.back().get());
    }
    const std::vector<std::uint16_t> ports = {nets[0]->trunk_port(),
                                              nets[1]->trunk_port()};
    for (const auto& net : nets) net->connect_trunks(ports);
    const std::size_t idle_tasks = settled_task_count();
    const auto start = std::chrono::steady_clock::now();
    for (const auto& net : nets) net->start();
    for (const auto& net : nets) {
      if (!net->wait_trunks(std::chrono::milliseconds(10000))) {
        throw std::runtime_error("trunks never came up");
      }
    }
    probe.threads = task_count() - idle_tasks;
    const Message tick(0, 0, 0.0, 1.0, {{"A1", Value(1.0)}}, kNoDeadline);
    LiveNetwork* hub_home = nets[0]->serves(0) ? raw[0] : raw[1];
    for (int i = 0; i < messages; ++i) hub_home->publish(0, tick);
    drain_live_cluster(raw);
    const auto end = std::chrono::steady_clock::now();
    const std::vector<ThreadTimerSlack> seen =
        thread_timer_slacks(kWorkerThreadPrefix);
    // Each shard dials one trunk and accepts one; after the drain both
    // directions have carried frames, so all four sockets are up.
    const int local = nets[0]->local_trunks() + nets[1]->local_trunks();
    probe.trunk_family = local == 4 ? "unix" : local == 0 ? "tcp" : "mixed";
    std::size_t delivered = 0;
    std::size_t links = 0;
    for (const auto& net : nets) {
      net->stop();
      delivered += net->stats().deliveries().size();
      links += net->link_count();
      probe.workers += net->worker_count();
      probe.trunk_forwards += net->trunk_forwards_sent();
    }
    probe.worker_slack_ns = worker_timer_slack(seen, {raw[0], raw[1]});
    probe.wall_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    probe.completed = delivered == static_cast<std::size_t>(messages) *
                                       topo.subscriber_count();
    if (!probe.completed) probe.error = "lost deliveries";
    probe.tx_per_sec =
        probe.wall_ms > 0.0 ? 1000.0 * static_cast<double>(messages) *
                                  static_cast<double>(links) / probe.wall_ms
                            : 0.0;
  } catch (const std::exception& e) {
    probe.error = e.what();
  }
  return probe;
}

/// Backslash-escapes quotes/backslashes and strips control characters, so
/// an arbitrary exception message cannot break the JSON output line.
std::string escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

void emit(const Probe& p) {
  std::string extra;
  if (!p.trunk_family.empty()) {
    extra += ", \"trunk_family\": \"" + p.trunk_family + "\"";
  }
  if (!p.error.empty()) extra += ", \"error\": \"" + escape(p.error) + "\"";
  std::printf(
      "{\"links\": %zu, \"mode\": \"%s\", \"workers\": %zu, "
      "\"threads\": %zu, \"worker_slack_ns\": %ld, \"completed\": %s, "
      "\"wall_ms\": %.1f, \"tx_per_sec\": %.0f, \"trunk_forwards\": "
      "%llu%s}\n",
      p.links, p.mode.c_str(), p.workers, p.threads, p.worker_slack_ns,
      p.completed ? "true" : "false", p.wall_ms, p.tx_per_sec,
      p.trunk_forwards, extra.c_str());
  std::fflush(stdout);
  std::fprintf(stderr, "%-16s %7zu links  %6zu threads  %9.1f ms  %s\n",
               p.mode.c_str(), p.links, p.threads, p.wall_ms,
               p.completed ? "ok" : p.error.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const KeyValueConfig args = KeyValueConfig::from_args(argc, argv);
  const double budget_ms = args.get_double("budget_s", 120.0) * 1000.0;
  const int messages = static_cast<int>(args.get_int("messages", 4));

  const std::vector<Row> rows = {
      {16, 16, false},    // 256 links
      {32, 32, false},    // 1k
      {64, 64, false},    // 4k
      {128, 64, false},   // 8k
      {128, 128, false},  // 16k
      {256, 128, true},   // 32k — reactor only
  };

  std::fprintf(stderr, "live link-scaling probe (%d msgs, budget %.0f s)\n",
               messages, budget_ms / 1000.0);
  bool socket_mode_alive = true;
  bool single_shard_rows = false;
  bool inexact_rows = false;
  bool tcp_rows = false;
  // A row whose workers did not get 1 ns slack timed the kernel's timer
  // coalescing, not the model's delays.
  const auto check_slack = [&inexact_rows](const Probe& probe) {
    if (probe.threads == 0 ||
        probe.worker_slack_ns == ScopedTimerSlack::kExactNs) {
      return;
    }
    std::fprintf(stderr,
                 "live_scaling: %s row at %zu links ran its workers with "
                 "timer slack %ld ns, not 1 ns\n",
                 probe.mode.c_str(), probe.links, probe.worker_slack_ns);
    inexact_rows = true;
  };
  for (const Row& row : rows) {
    const Topology topo =
        build_star_of_chains(row.chains, row.depth, LinkParams{0.2, 0.02});
    const RoutingFabric fabric(topo, flood_subscriptions(topo));
    const auto strategy = make_strategy(StrategyKind::kEb);

    const Probe reactor = run_probe_reactor(topo, fabric, *strategy, 0,
                                            messages);
    emit(reactor);
    check_slack(reactor);

    if (row.reactor_only) continue;
    if (!socket_mode_alive) {
      Probe skipped;
      skipped.links = row.chains * row.depth;
      skipped.mode = "socket_x2";
      skipped.error = "skipped: previous row failed or blew the budget";
      emit(skipped);
      continue;
    }
    const Probe probe = run_probe_socket(topo, fabric, *strategy, messages);
    emit(probe);
    check_slack(probe);
    if (probe.completed && probe.trunk_forwards == 0) {
      std::fprintf(stderr,
                   "live_scaling: socket row at %zu links completed with no "
                   "trunk forward\n",
                   probe.links);
      single_shard_rows = true;
    }
    if (probe.completed && probe.trunk_family != "unix") {
      std::fprintf(stderr,
                   "live_scaling: socket row at %zu links ran its default-host "
                   "trunks over %s, not local AF_UNIX sockets\n",
                   probe.links, probe.trunk_family.c_str());
      tcp_rows = true;
    }
    if (!probe.completed || probe.wall_ms > budget_ms) {
      socket_mode_alive = false;  // The ceiling: stop escalating.
    }
  }

  // Worker-count sweep at a mid scale (the PERF.md thread-count table).
  {
    const Topology topo = build_star_of_chains(64, 64, LinkParams{0.2, 0.02});
    const RoutingFabric fabric(topo, flood_subscriptions(topo));
    const auto strategy = make_strategy(StrategyKind::kEb);
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      const Probe probe =
          run_probe_reactor(topo, fabric, *strategy, workers, messages);
      emit(probe);
      check_slack(probe);
    }
  }
  return single_shard_rows || inexact_rows || tcp_rows ? 1 : 0;
}
