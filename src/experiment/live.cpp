#include "experiment/live.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/config.h"
#include "experiment/runner.h"
#include "sim/parallel/shard_plan.h"
#include "workload/generator.h"

namespace bdps {

namespace {

/// C hexfloat ("%a") — every double round-trips bit-for-bit through
/// strtod, which KeyValueConfig::get_double uses.
std::string hexf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string mode_name(LiveMode mode) {
  return mode == LiveMode::kSocket ? "socket" : "reactor";
}

LiveMode parse_mode(const std::string& name) {
  if (name == "reactor") return LiveMode::kReactor;
  if (name == "socket") return LiveMode::kSocket;
  throw std::invalid_argument("unknown live mode: " + name);
}

LiveRunResult collect_results(const std::vector<LiveNetwork*>& nets,
                              std::size_t published, double wall_ms) {
  LiveRunResult result;
  result.published = published;
  result.wall_ms = wall_ms;
  for (const LiveNetwork* net : nets) {
    const LiveStats& stats = net->stats();
    result.receptions += stats.receptions();
    result.deliveries += stats.deliveries().size();
    result.valid_deliveries += stats.valid_deliveries();
    result.purged += stats.purged();
    result.lost += stats.lost();
    result.earning += stats.earning();
    result.links += net->link_count();
    result.workers += net->worker_count();
    result.trunk_forwards += net->trunk_forwards_sent();
    result.trunk_reconnects += net->trunk_reconnects();
    const std::vector<LiveDelivery> local = stats.deliveries();
    result.delivery_log.insert(result.delivery_log.end(), local.begin(),
                               local.end());
  }
  return result;
}

}  // namespace

std::vector<Subscription> flood_subscriptions(const Topology& topology) {
  std::vector<Subscription> subs;
  subs.reserve(topology.subscriber_count());
  for (std::size_t s = 0; s < topology.subscriber_count(); ++s) {
    Subscription sub;
    sub.subscriber = static_cast<SubscriberId>(s);
    sub.home = topology.subscriber_homes[s];
    sub.allowed_delay = kNoDeadline;
    sub.price = 1.0;
    subs.push_back(std::move(sub));
  }
  return subs;
}

LiveWorld build_live_world(const LiveRunConfig& config) {
  // run_simulation's streams, so a (seed, config) pair names the same
  // topology, workload and fault timeline in both harnesses — and the same
  // world in every daemon of a cluster.
  RunStreams streams(config.sim.seed);
  LiveWorld world;
  world.topology = build_topology(streams.topology, config.sim);
  std::vector<Subscription> subscriptions = generate_subscriptions(
      streams.workload, config.sim.workload, world.topology);
  world.fabric = std::make_unique<RoutingFabric>(world.topology,
                                                 std::move(subscriptions));
  world.strategy = make_strategy(config.sim.strategy, config.sim.ebpc_weight);

  world.messages = generate_messages(streams.workload, config.sim.workload,
                                     world.topology.publisher_count());
  if (config.message_limit != 0 &&
      world.messages.size() > config.message_limit) {
    world.messages.resize(config.message_limit);
  }

  // Storm schedule: the simulator's batches, without its link kills.
  world.faults = compile_run_faults(config.sim, world.topology.graph, streams,
                                    /*with_kills=*/false);
  return world;
}

std::vector<std::uint32_t> live_broker_shards(const Graph& graph,
                                              std::size_t shards) {
  const ShardPlan plan = ShardPlan::greedy_edge_cut(graph, shards);
  std::vector<std::uint32_t> out(graph.broker_count());
  for (std::size_t b = 0; b < out.size(); ++b) {
    out[b] = plan.shard_of(static_cast<BrokerId>(b));
  }
  return out;
}

LiveOptions live_options_for(const LiveRunConfig& config, int shard,
                             int shard_count,
                             std::vector<std::uint32_t> broker_shard) {
  LiveOptions options;
  options.processing_delay = config.sim.processing_delay;
  options.purge = config.sim.purge;
  options.speedup = config.speedup;
  options.seed = config.sim.seed;
  options.mode = config.mode;
  options.workers = config.workers;
  options.wheel_tick_ms = config.wheel_tick_ms;
  options.net.shard = shard;
  options.net.shard_count = shard_count < 1 ? 1 : shard_count;
  options.net.broker_shard = std::move(broker_shard);
  options.net.reconnect_initial_ms = config.reconnect_initial_ms;
  options.net.reconnect_max_ms = config.reconnect_max_ms;
  options.net.bind_host = config.bind_host;
  options.net.peer_hosts = config.peer_hosts;
  return options;
}

std::size_t drive_live_schedule(const LiveWorld& world,
                                const std::vector<LiveNetwork*>& nets) {
  const LiveClock& clock = nets.front()->clock();

  // Clock-paced fault transitions, interleaved with the publish pacing
  // below: batches are applied once the scaled clock passes their instant,
  // in the compiler's canonical order.  Crashes go through
  // set_broker_state (queue wipes); the crashed broker's links are already
  // folded into the batch's edge halves by CompiledFaults::compile.  Every
  // instance sees every transition — unserved halves are no-ops there.
  std::size_t batch_cursor = 0;
  const auto apply_batch = [&](const FaultBatch& batch) {
    for (const BrokerId broker : batch.brokers_down) {
      for (LiveNetwork* net : nets) net->set_broker_state(broker, false);
    }
    for (const EdgeId edge : batch.edges_down) {
      for (LiveNetwork* net : nets) net->set_edge_state(edge, false);
    }
    for (const BrokerId broker : batch.brokers_up) {
      for (LiveNetwork* net : nets) net->set_broker_state(broker, true);
    }
    for (const EdgeId edge : batch.edges_up) {
      for (LiveNetwork* net : nets) net->set_edge_state(edge, true);
    }
  };
  const auto apply_faults_until = [&](TimeMs upto) {
    if (!world.faults) return;
    const auto& batches = world.faults->batches();
    while (batch_cursor < batches.size() && batches[batch_cursor].at <= upto) {
      const FaultBatch& batch = batches[batch_cursor++];
      const TimeMs ahead = batch.at - clock.now();
      if (ahead > 0.0) clock.sleep_for(ahead);
      apply_batch(batch);
    }
  };

  // Pace publishes to their generated instants (generate_messages returns
  // them in nondecreasing publish-time order) under their *generated* ids,
  // so delivery records align across modes, shards and processes.  In a
  // cluster each participant drives the same loop and publishes only the
  // messages whose edge broker it serves.
  std::size_t published = 0;
  for (const auto& message : world.messages) {
    apply_faults_until(message->publish_time());
    const TimeMs ahead = message->publish_time() - clock.now();
    if (ahead > 0.0) clock.sleep_for(ahead);
    const BrokerId home = world.topology.publisher_edges.at(
        static_cast<std::size_t>(message->publisher()));
    for (LiveNetwork* net : nets) {
      if (!net->serves(home)) continue;
      net->publish(message->publisher(), *message, message->id());
      ++published;
      break;
    }
  }
  // Remaining transitions (recoveries, late storms) must still land —
  // held copies would otherwise block the drain forever.
  apply_faults_until(kNoDeadline);
  return published;
}

void drain_live_cluster(const std::vector<LiveNetwork*>& nets) {
  int stable = 0;
  while (stable < 2) {
    std::size_t sum = 0;
    for (const LiveNetwork* net : nets) sum += net->outstanding();
    stable = sum == 0 ? stable + 1 : 0;
    if (stable < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

LiveRunResult run_live(const LiveRunConfig& config) {
  const LiveWorld world = build_live_world(config);

  std::size_t shard_count = 1;
  if (config.mode == LiveMode::kSocket && config.shards > 1) {
    // greedy_edge_cut needs a non-empty shard each.
    shard_count = std::min(config.shards, world.topology.graph.broker_count());
  }

  std::vector<std::unique_ptr<LiveNetwork>> instances;
  instances.reserve(shard_count);
  if (shard_count > 1) {
    const std::vector<std::uint32_t> broker_shard =
        live_broker_shards(world.topology.graph, shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      instances.push_back(std::make_unique<LiveNetwork>(
          &world.topology, world.fabric.get(), world.strategy.get(),
          live_options_for(config, static_cast<int>(s),
                           static_cast<int>(shard_count), broker_shard)));
    }
    // In-process port exchange (brokerd does the same dance over the
    // control plane), then full-mesh trunk dialing.
    std::vector<std::uint16_t> ports;
    ports.reserve(shard_count);
    for (const auto& net : instances) ports.push_back(net->trunk_port());
    for (const auto& net : instances) net->connect_trunks(ports);
  } else {
    instances.push_back(std::make_unique<LiveNetwork>(
        &world.topology, world.fabric.get(), world.strategy.get(),
        live_options_for(config, 0, 1, {})));
  }
  std::vector<LiveNetwork*> nets;
  nets.reserve(instances.size());
  for (const auto& net : instances) nets.push_back(net.get());

  const auto wall_start = std::chrono::steady_clock::now();
  for (LiveNetwork* net : nets) net->start();
  for (LiveNetwork* net : nets) {
    if (!net->wait_trunks(std::chrono::milliseconds(10000))) {
      throw std::runtime_error("live cluster: trunks failed to connect");
    }
  }

  const std::size_t published = drive_live_schedule(world, nets);
  drain_live_cluster(nets);
  const auto wall_end = std::chrono::steady_clock::now();
  for (LiveNetwork* net : nets) net->stop();

  return collect_results(
      nets, published,
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count());
}

TopologyKind parse_topology(const std::string& name) {
  for (const TopologyKind kind :
       {TopologyKind::kPaper, TopologyKind::kAcyclic, TopologyKind::kRandomMesh,
        TopologyKind::kDumbbell, TopologyKind::kRing, TopologyKind::kGrid,
        TopologyKind::kScaleFree}) {
    if (topology_name(kind) == name) return kind;
  }
  throw std::invalid_argument("unknown topology: " + name);
}

std::string format_live_config(const LiveRunConfig& c) {
  std::ostringstream out;
  out << "# bdps live config v1\n";
  out << "seed=" << c.sim.seed << '\n';
  out << "strategy=" << strategy_name(c.sim.strategy) << '\n';
  out << "ebpc_weight=" << hexf(c.sim.ebpc_weight) << '\n';
  out << "purge_epsilon=" << hexf(c.sim.purge.epsilon) << '\n';
  out << "purge_drop_expired=" << (c.sim.purge.drop_expired ? 1 : 0) << '\n';
  out << "processing_delay=" << hexf(c.sim.processing_delay) << '\n';

  const WorkloadConfig& w = c.sim.workload;
  out << "scenario=" << scenario_name(w.scenario) << '\n';
  out << "rate_per_min=" << hexf(w.publishing_rate_per_min) << '\n';
  out << "poisson=" << (w.poisson_arrivals ? 1 : 0) << '\n';
  out << "duration=" << hexf(w.duration) << '\n';
  out << "size_kb=" << hexf(w.message_size_kb) << '\n';
  out << "attribute_count=" << w.attribute_count << '\n';
  out << "attribute_lo=" << hexf(w.attribute_lo) << '\n';
  out << "attribute_hi=" << hexf(w.attribute_hi) << '\n';
  out << "psd_delay_lo=" << hexf(w.psd_delay_lo) << '\n';
  out << "psd_delay_hi=" << hexf(w.psd_delay_hi) << '\n';
  out << "ssd_tiers=";  // Flat (delay, price) pairs.
  for (std::size_t i = 0; i < w.ssd_tiers.size(); ++i) {
    if (i > 0) out << ',';
    out << hexf(w.ssd_tiers[i].allowed_delay) << ','
        << hexf(w.ssd_tiers[i].price);
  }
  out << '\n';
  out << "churn=" << hexf(w.churn_fraction) << '\n';
  out << "bursts=";  // Flat (at, duration, multiplier) triples.
  for (std::size_t i = 0; i < w.bursts.size(); ++i) {
    if (i > 0) out << ',';
    out << hexf(w.bursts[i].at) << ',' << hexf(w.bursts[i].duration) << ','
        << hexf(w.bursts[i].rate_multiplier);
  }
  out << '\n';

  out << "topology=" << topology_name(c.sim.topology) << '\n';
  out << "broker_count=" << c.sim.broker_count << '\n';
  out << "publisher_count=" << c.sim.publisher_count << '\n';
  out << "subscriber_count=" << c.sim.subscriber_count << '\n';
  out << "extra_edges=" << c.sim.extra_edges << '\n';
  out << "grid_rows=" << c.sim.grid_rows << '\n';
  out << "grid_cols=" << c.sim.grid_cols << '\n';
  out << "grid_torus=" << (c.sim.grid_torus ? 1 : 0) << '\n';
  out << "scale_free_edges=" << c.sim.scale_free_edges_per_node << '\n';
  out << "link_lo=" << hexf(c.sim.link_mean_lo_ms_per_kb) << '\n';
  out << "link_hi=" << hexf(c.sim.link_mean_hi_ms_per_kb) << '\n';
  out << "link_stddev=" << hexf(c.sim.link_stddev_ms_per_kb) << '\n';

  const PaperTopologyConfig& p = c.sim.paper_topology;
  out << "paper_layer1=" << p.layer1 << '\n';
  out << "paper_layer2=" << p.layer2 << '\n';
  out << "paper_layer3=" << p.layer3 << '\n';
  out << "paper_layer4=" << p.layer4 << '\n';
  out << "paper_subscribers=" << p.subscribers_per_edge_broker << '\n';
  out << "paper_uplinks3=" << p.uplinks_per_layer3 << '\n';
  out << "paper_uplinks4=" << p.uplinks_per_layer4 << '\n';
  out << "paper_link_lo=" << hexf(p.link_mean_lo_ms_per_kb) << '\n';
  out << "paper_link_hi=" << hexf(p.link_mean_hi_ms_per_kb) << '\n';
  out << "paper_link_stddev=" << hexf(p.link_stddev_ms_per_kb) << '\n';

  out << "mode=" << mode_name(c.mode) << '\n';
  out << "workers=" << c.workers << '\n';
  out << "speedup=" << hexf(c.speedup) << '\n';
  out << "wheel_tick_ms=" << hexf(c.wheel_tick_ms) << '\n';
  out << "message_limit=" << c.message_limit << '\n';
  out << "shards=" << c.shards << '\n';
  out << "reconnect_initial_ms=" << hexf(c.reconnect_initial_ms) << '\n';
  out << "reconnect_max_ms=" << hexf(c.reconnect_max_ms) << '\n';
  out << "net_bind_host=" << c.bind_host << '\n';
  out << "net_peer_hosts=";  // Comma list indexed by shard id.
  for (std::size_t i = 0; i < c.peer_hosts.size(); ++i) {
    if (i > 0) out << ',';
    out << c.peer_hosts[i];
  }
  out << '\n';

  if (!c.sim.faults.empty()) {
    out << "%%faults\n" << format_fault_plan(c.sim.faults);
  }
  return out.str();
}

LiveRunConfig parse_live_config(const std::string& text) {
  // Split off the fault-plan section (its directive syntax is not
  // key=value).  The marker must start a line.
  std::string head = text;
  std::string faults_text;
  const std::string marker = "%%faults";
  std::size_t at = text.rfind("\n" + marker);
  if (at != std::string::npos || text.rfind(marker, 0) == 0) {
    const std::size_t marker_start = at == std::string::npos ? 0 : at + 1;
    head = text.substr(0, marker_start);
    faults_text = text.substr(marker_start + marker.size());
  }

  const KeyValueConfig kv = KeyValueConfig::from_text(head);
  LiveRunConfig c;
  c.sim.seed = std::strtoull(
      kv.get_string("seed", std::to_string(c.sim.seed)).c_str(), nullptr, 10);
  c.sim.strategy =
      parse_strategy(kv.get_string("strategy", strategy_name(c.sim.strategy)));
  c.sim.ebpc_weight = kv.get_double("ebpc_weight", c.sim.ebpc_weight);
  c.sim.purge.epsilon = kv.get_double("purge_epsilon", c.sim.purge.epsilon);
  c.sim.purge.drop_expired =
      kv.get_bool("purge_drop_expired", c.sim.purge.drop_expired);
  c.sim.processing_delay =
      kv.get_double("processing_delay", c.sim.processing_delay);

  WorkloadConfig& w = c.sim.workload;
  w.scenario = parse_scenario(kv.get_string("scenario", scenario_name(w.scenario)));
  w.publishing_rate_per_min =
      kv.get_double("rate_per_min", w.publishing_rate_per_min);
  w.poisson_arrivals = kv.get_bool("poisson", w.poisson_arrivals);
  w.duration = kv.get_double("duration", w.duration);
  w.message_size_kb = kv.get_double("size_kb", w.message_size_kb);
  w.attribute_count = kv.get_int("attribute_count", w.attribute_count);
  w.attribute_lo = kv.get_double("attribute_lo", w.attribute_lo);
  w.attribute_hi = kv.get_double("attribute_hi", w.attribute_hi);
  w.psd_delay_lo = kv.get_double("psd_delay_lo", w.psd_delay_lo);
  w.psd_delay_hi = kv.get_double("psd_delay_hi", w.psd_delay_hi);
  if (kv.has("ssd_tiers")) {
    const std::vector<double> flat = kv.get_double_list("ssd_tiers", {});
    if (flat.size() % 2 != 0) {
      throw std::invalid_argument("live config: odd ssd_tiers list");
    }
    w.ssd_tiers.clear();
    for (std::size_t i = 0; i + 1 < flat.size(); i += 2) {
      w.ssd_tiers.push_back(DelayTier{flat[i], flat[i + 1]});
    }
  }
  w.churn_fraction = kv.get_double("churn", w.churn_fraction);
  if (kv.has("bursts")) {
    const std::vector<double> flat = kv.get_double_list("bursts", {});
    if (flat.size() % 3 != 0) {
      throw std::invalid_argument("live config: bursts not triples");
    }
    w.bursts.clear();
    for (std::size_t i = 0; i + 2 < flat.size(); i += 3) {
      w.bursts.push_back(
          WorkloadConfig::PublishBurst{flat[i], flat[i + 1], flat[i + 2]});
    }
  }

  c.sim.topology =
      parse_topology(kv.get_string("topology", topology_name(c.sim.topology)));
  const auto get_size = [&kv](const char* key, std::size_t fallback) {
    return static_cast<std::size_t>(
        kv.get_int(key, static_cast<int>(fallback)));
  };
  c.sim.broker_count = get_size("broker_count", c.sim.broker_count);
  c.sim.publisher_count = get_size("publisher_count", c.sim.publisher_count);
  c.sim.subscriber_count = get_size("subscriber_count", c.sim.subscriber_count);
  c.sim.extra_edges = get_size("extra_edges", c.sim.extra_edges);
  c.sim.grid_rows = get_size("grid_rows", c.sim.grid_rows);
  c.sim.grid_cols = get_size("grid_cols", c.sim.grid_cols);
  c.sim.grid_torus = kv.get_bool("grid_torus", c.sim.grid_torus);
  c.sim.scale_free_edges_per_node =
      get_size("scale_free_edges", c.sim.scale_free_edges_per_node);
  c.sim.link_mean_lo_ms_per_kb =
      kv.get_double("link_lo", c.sim.link_mean_lo_ms_per_kb);
  c.sim.link_mean_hi_ms_per_kb =
      kv.get_double("link_hi", c.sim.link_mean_hi_ms_per_kb);
  c.sim.link_stddev_ms_per_kb =
      kv.get_double("link_stddev", c.sim.link_stddev_ms_per_kb);

  PaperTopologyConfig& p = c.sim.paper_topology;
  p.layer1 = get_size("paper_layer1", p.layer1);
  p.layer2 = get_size("paper_layer2", p.layer2);
  p.layer3 = get_size("paper_layer3", p.layer3);
  p.layer4 = get_size("paper_layer4", p.layer4);
  p.subscribers_per_edge_broker =
      get_size("paper_subscribers", p.subscribers_per_edge_broker);
  p.uplinks_per_layer3 = get_size("paper_uplinks3", p.uplinks_per_layer3);
  p.uplinks_per_layer4 = get_size("paper_uplinks4", p.uplinks_per_layer4);
  p.link_mean_lo_ms_per_kb =
      kv.get_double("paper_link_lo", p.link_mean_lo_ms_per_kb);
  p.link_mean_hi_ms_per_kb =
      kv.get_double("paper_link_hi", p.link_mean_hi_ms_per_kb);
  p.link_stddev_ms_per_kb =
      kv.get_double("paper_link_stddev", p.link_stddev_ms_per_kb);

  c.mode = parse_mode(kv.get_string("mode", mode_name(c.mode)));
  c.workers = get_size("workers", c.workers);
  c.speedup = kv.get_double("speedup", c.speedup);
  c.wheel_tick_ms = kv.get_double("wheel_tick_ms", c.wheel_tick_ms);
  c.message_limit = get_size("message_limit", c.message_limit);
  c.shards = get_size("shards", c.shards);
  c.reconnect_initial_ms =
      kv.get_double("reconnect_initial_ms", c.reconnect_initial_ms);
  c.reconnect_max_ms = kv.get_double("reconnect_max_ms", c.reconnect_max_ms);
  c.bind_host = kv.get_string("net_bind_host", c.bind_host);
  if (kv.has("net_peer_hosts")) {
    // Comma list indexed by shard id; an empty value means no overrides
    // (every trunk dials its peer's local socket).  KeyValueConfig has no string-list
    // getter, so split here — hosts are IPv4 literals, commas never nest.
    c.peer_hosts.clear();
    const std::string flat = kv.get_string("net_peer_hosts", "");
    if (!flat.empty()) {
      std::size_t start = 0;
      for (;;) {
        const std::size_t comma = flat.find(',', start);
        c.peer_hosts.push_back(flat.substr(
            start, comma == std::string::npos ? comma : comma - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }
  }

  if (!faults_text.empty()) {
    c.sim.faults = parse_fault_plan(faults_text);
  }
  return c;
}

}  // namespace bdps
