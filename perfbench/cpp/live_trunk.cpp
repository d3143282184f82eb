// live_trunk — an in-process two-shard LiveMode::kSocket cluster: one
// reactor worker per shard, brokers two-coloured across the shards so
// every subscribed link crosses the cut, deadline-free flood subscriptions
// on fast links at a high speedup (program cost dominates model time and
// the delivery multiset is deterministic).  The generator thread publishes open-loop at
// a fixed rate below saturation, so a stall delays every later message
// and shows in latency measured from when each publish was due.
//
// This is the workload where runtime (reactor, timer wheel) and net (wire
// encode/parse, seq/ack trunks) carry the load.
//
// Output check: the delivery multiset equals the offline expectation — one
// delivery per (subscriber, message) pair whose filter matches; trunk
// reconnects count as failures.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <sys/prctl.h>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "experiment/live.h"
#include "net/wire.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using namespace bdps;

struct Plan {
  std::size_t rows;
  std::size_t cols;
  std::size_t subscribers;
  double rate_hz;
  std::size_t messages;
};

Plan plan_for(const RunContext& ctx) {
  if (ctx.tiny()) {
    return Plan{2, 3, 12, 500.0, static_cast<std::size_t>(100 * ctx.seconds)};
  }
  const double rate = 1000.0;
  return Plan{4, 4, 32, rate, static_cast<std::size_t>(rate * ctx.seconds)};
}

LiveRunConfig live_config(const RunContext& ctx, const Plan& plan) {
  LiveRunConfig config;
  SimConfig& sim = config.sim;
  sim.seed = ctx.seed;
  sim.strategy = StrategyKind::kEbpc;
  sim.topology = TopologyKind::kGrid;
  sim.grid_rows = plan.rows;
  sim.grid_cols = plan.cols;
  sim.publisher_count = 4;
  sim.subscriber_count = plan.subscribers;
  sim.processing_delay = 0.1;
  sim.link_mean_lo_ms_per_kb = 0.05;
  sim.link_mean_hi_ms_per_kb = 0.1;
  sim.link_stddev_ms_per_kb = 0.01;
  WorkloadConfig& w = sim.workload;
  w.scenario = ScenarioKind::kSsd;  // Messages carry no deadline.
  w.message_size_kb = 1.0;
  // Enough generated heads for the open loop (it replaces their publish
  // instants with its own schedule); message_limit trims the rest.
  w.publishing_rate_per_min = 600.0;
  w.duration = minutes(1.5 * static_cast<double>(plan.messages) /
                           (600.0 * static_cast<double>(sim.publisher_count)) +
                       0.1);
  config.message_limit = plan.messages;
  config.mode = LiveMode::kSocket;
  config.workers = 1;
  config.shards = 2;
  config.speedup = 100.0;
  config.wheel_tick_ms = 0.05;
  return config;
}

/// build_live_world's world (same stream splits) with flood subscriptions:
/// deadline-free, price-1, match-everything subscribers, so every message
/// reaches every subscriber — the same copies per message whatever the
/// seed, and no deadline purges.  `fabric_ms` receives the routing fabric's
/// build time.
LiveWorld flood_world(const LiveRunConfig& config, double& fabric_ms) {
  Rng root(config.sim.seed);
  Rng topology_rng = root.split();
  Rng workload_rng = root.split();
  LiveWorld world;
  world.topology = build_topology(topology_rng, config.sim);
  // Subscribers spread round-robin over the brokers, so every broker has
  // the same number of local subscribers whatever the seed.
  auto& homes = world.topology.subscriber_homes;
  for (std::size_t s = 0; s < homes.size(); ++s) {
    homes[s] = static_cast<BrokerId>(s % world.topology.graph.broker_count());
  }
  std::vector<Subscription> subs = flood_subscriptions(world.topology);
  const auto start = Clock::now();
  world.fabric =
      std::make_unique<RoutingFabric>(world.topology, std::move(subs));
  fabric_ms = 1000.0 * seconds_since(start);
  world.strategy = make_strategy(config.sim.strategy, config.sim.ebpc_weight);
  world.messages = generate_messages(workload_rng, config.sim.workload,
                                     world.topology.publisher_count());
  if (world.messages.size() > config.message_limit) {
    world.messages.resize(config.message_limit);
  }
  return world;
}

/// Two-colours the overlay by BFS from broker 0: on a bipartite graph (a
/// grid) every link crosses the cut between the two shards.
std::vector<std::uint32_t> two_colour(const Graph& graph) {
  std::vector<std::uint32_t> colour(graph.broker_count(), 2);
  std::vector<BrokerId> frontier{0};
  colour[0] = 0;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const BrokerId b = frontier[head];
    for (const EdgeId e : graph.out_edges(b)) {
      const BrokerId to = graph.edge(e).to;
      if (colour[to] != 2) continue;
      colour[to] = 1 - colour[b];
      frontier.push_back(to);
    }
  }
  for (std::uint32_t& c : colour) c = c == 2 ? 0 : c;
  return colour;
}

struct Cluster {
  std::vector<std::unique_ptr<LiveNetwork>> instances;
  std::vector<LiveNetwork*> nets;
  double dial_ms = 0.0;

  ~Cluster() {
    for (LiveNetwork* net : nets) net->stop();
  }
};

std::unique_ptr<Cluster> start_cluster(const LiveRunConfig& config,
                                       const LiveWorld& world,
                                       const std::vector<std::uint32_t>& shard) {
  auto cluster = std::make_unique<Cluster>();
  for (int s = 0; s < 2; ++s) {
    cluster->instances.push_back(std::make_unique<LiveNetwork>(
        &world.topology, world.fabric.get(), world.strategy.get(),
        live_options_for(config, s, 2, shard)));
    cluster->nets.push_back(cluster->instances.back().get());
  }
  const auto dial = Clock::now();
  std::vector<std::uint16_t> ports;
  for (LiveNetwork* net : cluster->nets) ports.push_back(net->trunk_port());
  for (LiveNetwork* net : cluster->nets) net->connect_trunks(ports);
  for (LiveNetwork* net : cluster->nets) net->start();
  for (LiveNetwork* net : cluster->nets) {
    if (!net->wait_trunks(std::chrono::milliseconds(10000))) {
      throw std::runtime_error("live_trunk: trunks failed to connect");
    }
  }
  cluster->dial_ms = 1000.0 * seconds_since(dial);
  return cluster;
}

/// One open-loop phase: publishes world.messages[first, last) at the plan's
/// rate, each at its due instant, then drains the cluster.
struct Phase {
  std::vector<Clock::time_point> due;     // Indexed by message - first.
  std::vector<Clock::time_point> actual;  // Just before publish().
  std::vector<double> publish_us;         // Traced phases only.
  double cpu_s = 0.0;
  double schedule_cpu_s = 0.0;  // The publish schedule alone, drain excluded.
  double drain_ms = 0.0;
};

Phase run_phase(const Plan& plan, const LiveWorld& world, Cluster& cluster,
                std::size_t first, std::size_t last, bool traced) {
  Phase phase;
  const std::size_t n = last - first;
  phase.due.resize(n);
  phase.actual.resize(n);
  const auto gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / plan.rate_hz));
  const double cpu_start = process_cpu_s();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < n; ++i) {
    const Message& message = *world.messages[first + i];
    phase.due[i] = t0 + gap * static_cast<std::int64_t>(i);
    std::this_thread::sleep_until(phase.due[i]);
    const BrokerId home = world.topology.publisher_edges.at(
        static_cast<std::size_t>(message.publisher()));
    LiveNetwork* target = cluster.nets[0]->serves(home) ? cluster.nets[0]
                                                        : cluster.nets[1];
    phase.actual[i] = Clock::now();
    target->publish(message.publisher(), message, message.id());
    if (traced) phase.publish_us.push_back(to_us(Clock::now() - phase.actual[i]));
  }
  // The schedule ends one message gap after its last publish.
  std::this_thread::sleep_until(t0 + gap * static_cast<std::int64_t>(n));
  phase.schedule_cpu_s = process_cpu_s() - cpu_start;
  const auto drain_start = Clock::now();
  drain_live_cluster(cluster.nets);
  phase.drain_ms = 1000.0 * seconds_since(drain_start);
  phase.cpu_s = process_cpu_s() - cpu_start;
  return phase;
}

/// One delivery per (subscriber, message) pair whose filter matches.
std::vector<std::pair<SubscriberId, MessageId>> expected_deliveries(
    const LiveWorld& world, std::size_t count) {
  std::vector<std::pair<SubscriberId, MessageId>> out;
  const RoutingFabric& fabric = *world.fabric;
  for (std::size_t m = 0; m < count; ++m) {
    const Message& message = *world.messages[m];
    for (std::size_t s = 0; s < fabric.subscription_count(); ++s) {
      const Subscription& sub = fabric.subscription(s);
      bool match = sub.filter.matches(message);
      for (const Filter& f : sub.or_filters) match = match || f.matches(message);
      if (match) out.emplace_back(sub.subscriber, message.id());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Encodes then parses one kForward frame per message; checks the round
/// trip and reports per-frame costs and sizes.
void wire_probe(const LiveWorld& world, std::size_t count, Report& report) {
  std::vector<Frame> frames;
  frames.reserve(count);
  for (std::size_t m = 0; m < count; ++m) {
    frames.push_back(Frame{ForwardFrame{m + 1, static_cast<BrokerId>(m % 16),
                                        *world.messages[m]}});
  }
  std::vector<std::vector<std::uint8_t>> encoded(count);
  std::size_t bytes = 0;
  const auto encode_start = Clock::now();
  for (std::size_t m = 0; m < count; ++m) encode_frame(frames[m], encoded[m]);
  const double encode_us = to_us(Clock::now() - encode_start);
  std::size_t mismatches = 0;
  const auto parse_start = Clock::now();
  for (std::size_t m = 0; m < count; ++m) {
    const Frame parsed = parse_frame(encoded[m].data(), encoded[m].size());
    mismatches += parsed == frames[m] ? 0 : 1;
  }
  const double parse_us = to_us(Clock::now() - parse_start);
  for (const auto& e : encoded) bytes += e.size();
  report.attempt(count);
  if (mismatches > 0) {
    report.fail(mismatches, std::to_string(mismatches) +
                                " kForward frames did not round-trip");
  }
  const double n = static_cast<double>(count);
  report.set("net.encode_ns", 1000.0 * encode_us / n, "ns");
  report.set("net.parse_ns", 1000.0 * parse_us / n, "ns");
  report.set("net.bytes_per_copy", static_cast<double>(bytes) / n, "bytes");
}

}  // namespace

void run_live_trunk(const RunContext& ctx, Report& report) {
  const Plan plan = plan_for(ctx);
  const LiveRunConfig config = live_config(ctx, plan);

  // Set-up: world build, two shards, trunk dial — kSetupRepeats times.
  LiveWorld world;
  std::unique_ptr<Cluster> cluster;
  std::vector<double> setup_s, world_ms, fabric_ms, dial_ms;
  std::vector<std::uint32_t> shard;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    cluster.reset();
    world = LiveWorld{};
    const auto start = Clock::now();
    world = flood_world(config, fabric_ms.emplace_back());
    world_ms.push_back(1000.0 * seconds_since(start));
    shard = two_colour(world.topology.graph);
    cluster = start_cluster(config, world, shard);
    setup_s.push_back(seconds_since(start));
    dial_ms.push_back(cluster->dial_ms);
  }
  report.set("setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s");
  report.set("setup.world_ms", median(world_ms), "ms");
  report.set("routing.build_ms", median(fabric_ms), "ms");
  report.set("net.dial_ms", median(dial_ms), "ms");

  const std::size_t count = world.messages.size();
  report.require(count == plan.messages,
                 "generated " + std::to_string(count) + " of " +
                     std::to_string(plan.messages) + " messages");
  std::size_t cut_links = 0;
  for (std::size_t e = 0; e < world.topology.graph.edge_count(); ++e) {
    const Edge& edge = world.topology.graph.edge(static_cast<EdgeId>(e));
    cut_links += shard[edge.from] != shard[edge.to] ? 1 : 0;
  }
  report.note("links crossing the cut: " + std::to_string(cut_links) + " of " +
              std::to_string(world.topology.graph.edge_count()));
  const std::size_t threads = live_thread_count();
  report.require(threads - 1 <= available_cpus(),
                 std::to_string(threads - 1) + " service threads > " +
                     std::to_string(available_cpus()) + " cpus");

  // Timed phases: the untraced run publishes everything in one phase; the
  // traced run splits the schedule into an untraced and a traced half.
  // The generator thread sleeps to each due instant with no timer slack
  // (the default 50 us would be charged to every message as lateness);
  // the cluster's threads already exist and keep the default.
  const int old_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::vector<Phase> phases;
  std::vector<std::size_t> firsts;
  const std::size_t half = ctx.trace ? count / 2 : count;
  phases.push_back(run_phase(plan, world, *cluster, 0, half, false));
  firsts.push_back(0);
  if (ctx.trace) {
    phases.push_back(run_phase(plan, world, *cluster, half, count, true));
    firsts.push_back(half);
  }
  prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(old_slack), 0, 0, 0);
  std::uint64_t forwards = 0, reconnects = 0;
  std::size_t receptions = 0, purged = 0, lost = 0;
  std::vector<LiveDelivery> deliveries;
  for (LiveNetwork* net : cluster->nets) {
    forwards += net->trunk_forwards_sent();
    reconnects += net->trunk_reconnects();
    receptions += net->stats().receptions();
    purged += net->stats().purged();
    lost += net->stats().lost();
    const std::vector<LiveDelivery> local = net->stats().deliveries();
    deliveries.insert(deliveries.end(), local.begin(), local.end());
  }
  cluster.reset();

  // Delivery multiset vs. the offline expectation.
  const auto expected = expected_deliveries(world, count);
  std::vector<std::pair<SubscriberId, MessageId>> got;
  for (const LiveDelivery& d : deliveries) got.emplace_back(d.subscriber, d.message);
  std::sort(got.begin(), got.end());
  std::vector<std::pair<SubscriberId, MessageId>> common;
  std::set_intersection(expected.begin(), expected.end(), got.begin(),
                        got.end(), std::back_inserter(common));
  const std::size_t missing = expected.size() - common.size();
  const std::size_t extra = got.size() - common.size();
  report.attempt(expected.size());
  if (missing + extra > 0) {
    report.fail(missing + extra, std::to_string(missing) + " missing and " +
                                     std::to_string(extra) +
                                     " unexpected deliveries");
  }
  if (reconnects > 0) {
    report.fail(reconnects, std::to_string(reconnects) + " trunk reconnects");
  }
  if (purged + lost > 0) {
    report.fail(purged + lost, std::to_string(purged) + " purged and " +
                                   std::to_string(lost) + " lost copies");
  }
  report.require(forwards > 0, "no copy crossed a trunk");

  // Wall latency from when each publish was due to its delivery: the gap
  // to the actual publish plus the runtime's own publish->delivery delay.
  const double speedup = config.speedup;
  const auto lag_ms = [&](MessageId id) {
    for (std::size_t p = phases.size(); p-- > 0;) {
      if (static_cast<std::size_t>(id) < firsts[p]) continue;
      const std::size_t i = static_cast<std::size_t>(id) - firsts[p];
      return std::chrono::duration<double, std::milli>(phases[p].actual[i] -
                                                       phases[p].due[i])
          .count();
    }
    return 0.0;
  };
  const double published = static_cast<double>(count);

  // Delivery latencies in publish order (message ids follow the schedule),
  // so the tail is taken per block of the run.
  std::sort(deliveries.begin(), deliveries.end(),
            [](const LiveDelivery& a, const LiveDelivery& b) {
              return a.message < b.message;
            });
  std::vector<double> latency_ms;
  latency_ms.reserve(deliveries.size());
  for (const LiveDelivery& d : deliveries) {
    latency_ms.push_back(lag_ms(d.message) + d.delay / speedup);
  }
  report.set("latency_p99_ms", blocked_percentile(latency_ms, 0.99), "ms");

  if (!ctx.trace) {
    report.note("whole phase with drain: cpu_us_per_msg " +
                std::to_string(1e6 * phases[0].cpu_s / published));
    report.set("cpu_us_per_msg", 1e6 * phases[0].schedule_cpu_s / published,
               "us");
    report.set("latency_p50_ms", percentile(latency_ms, 0.50), "ms");
    report.set("delivery_rate",
               expected.empty() ? 1.0
                                : static_cast<double>(common.size()) /
                                      static_cast<double>(expected.size()),
               "ratio");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("deliveries " + std::to_string(deliveries.size()) +
                ", trunk forwards " + std::to_string(forwards));
    return;
  }

  const Phase& base = phases[0];
  const Phase& traced = phases[1];
  std::vector<double> lags;
  for (std::size_t i = 0; i < traced.due.size(); ++i) {
    lags.push_back(std::chrono::duration<double, std::milli>(traced.actual[i] -
                                                             traced.due[i])
                       .count());
  }
  const double base_n = static_cast<double>(base.due.size());
  const double traced_n = static_cast<double>(traced.due.size());
  report.set("trace.overhead_frac",
             (traced.cpu_s / traced_n) / (base.cpu_s / base_n) - 1.0, "ratio");
  report.set("runtime.publish_us", median(traced.publish_us), "us");
  report.set("runtime.drain_ms", traced.drain_ms, "ms");
  report.set("runtime.gen_lag_p99_ms", percentile(lags, 0.99), "ms");
  report.set("runtime.receptions_per_msg",
             static_cast<double>(receptions) / published, "count");
  report.set("net.forwards_per_msg", static_cast<double>(forwards) / published,
             "count");
  wire_probe(world, count, report);
}

}  // namespace perfbench
