// sim_storm — the paper's question under stress, in the sequential
// discrete-event Simulator: fig. 3's layered overlay scaled up, SSD
// subscribers, EBPC, a region storm (links down, a broker crashed)
// followed by a link flap on an edge broker's uplink with a flash-crowd
// burst riding on it, and incremental routing repair on.  The sim engine,
// scheduling pick/purge at deep queues, broker fan-out and routing repair
// do the work; per-broker match tables stay small and there is no reactor
// or trunk.
//
// One run simulates Plan::worlds worlds drawn from the seed and pools them:
// a single world's random uplinks decide how hard the storm bites, and
// pooling keeps that from swinging the run's cost from seed to seed.
// End-to-end numbers come from repeated untraced run_simulation calls
// (identical work each time; each world's fastest counts); delays are
// on the virtual clock.  setup_s times run_simulation itself on the same
// configurations with an empty publish window, so it covers every step the
// simulator takes before its first event.
// Output check: one run per world with a counting TraceSink proves copy
// conservation and agrees with the collector, and every timed run must
// reproduce its result exactly.
#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "broker/broker.h"
#include "experiment/paper.h"
#include "experiment/runner.h"
#include "routing/fabric.h"
#include "sim/faults/timeline.h"
#include "trace/trace.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using namespace bdps;

struct Plan {
  std::size_t layer2, layer3, layer4;
  std::size_t subscribers_per_edge;
  double minutes;   // Simulated publish window per world.
  std::size_t worlds;
  int timed_runs;   // Each runs every world once.
};

Plan plan_for(const RunContext& ctx) {
  const int runs = std::max(2, static_cast<int>(ctx.seconds + 0.5));
  if (ctx.tiny()) return Plan{4, 8, 16, 4, 10.0, 1, 1};
  return Plan{8, 36, 80, 12, 10.0, 3, runs};
}

/// The parts of run_simulation's world the traced run's replay probes use,
/// built the same way (identical stream splits).  The believed graph is
/// the true one here: storm_config injects no belief noise.
struct World {
  Topology topology;
  std::unique_ptr<RoutingFabric> fabric;
  std::vector<std::shared_ptr<const Message>> messages;
  std::shared_ptr<const CompiledFaults> faults;
  double fabric_build_ms = 0.0;
};

World build_world(const SimConfig& config) {
  Rng root(config.seed);
  Rng topology_rng = root.split();
  Rng workload_rng = root.split();
  (void)root.split();  // Link stream.
  (void)root.split();  // Belief stream.
  World world;
  world.topology = build_topology(topology_rng, config);
  std::vector<Subscription> subs =
      generate_subscriptions(workload_rng, config.workload, world.topology);
  FabricOptions options;
  options.repairable = config.repair_routing && !config.faults.empty();
  options.covering = config.match_covering;
  const auto start = Clock::now();
  world.fabric = std::make_unique<RoutingFabric>(world.topology,
                                                 std::move(subs), options);
  world.fabric_build_ms = 1000.0 * seconds_since(start);
  if (!config.faults.empty()) {
    Rng fault_rng = root.split();
    const FaultPlan plan =
        materialize_faults(config.faults, world.topology.graph, fault_rng);
    world.faults = std::make_shared<const CompiledFaults>(
        CompiledFaults::compile(plan, world.topology.graph));
  }
  world.messages = generate_messages(workload_rng, config.workload,
                                     world.topology.publisher_count());
  return world;
}

SimConfig storm_config(std::uint64_t seed, const Plan& plan) {
  SimConfig config =
      paper_base_config(ScenarioKind::kSsd, 9.0, StrategyKind::kEbpc, seed);
  // Fig. 3's layered overlay scaled up: publishers behind layer 1, every
  // subscriber on a layer-4 edge broker.
  PaperTopologyConfig& layers = config.paper_topology;
  layers.layer1 = 4;
  layers.layer2 = plan.layer2;
  layers.layer3 = plan.layer3;
  layers.layer4 = plan.layer4;
  layers.subscribers_per_edge_broker = plan.subscribers_per_edge;
  config.workload.duration = minutes(plan.minutes);
  config.repair_routing = true;
  const TimeMs d = config.workload.duration;

  // Region storm around one layer-3 broker: it crashes and its links go
  // down, recovering with jitter.
  RegionStorm storm;
  storm.at = 0.2 * d;
  storm.epicenter = static_cast<BrokerId>(4 + plan.layer2);
  storm.radius = 1;
  storm.recovery_delay = 0.15 * d;
  storm.recovery_jitter = 0.05 * d;
  storm.kill_brokers = true;
  config.faults.storms.push_back(storm);
  // Then a flap on the first uplink of the last edge broker, read off the
  // topology this seed builds, with a flash crowd riding on it.
  Rng root(config.seed);
  Rng topology_rng = root.split();
  const Topology topology = build_topology(topology_rng, config);
  const BrokerId edge = static_cast<BrokerId>(topology.graph.broker_count() - 1);
  const Edge& uplink = topology.graph.edge(topology.graph.out_edges(edge).at(0));
  config.faults.flaps.push_back(
      LinkFlap{uplink.from, uplink.to, 0.5 * d, 0.05 * d, 0.02 * d, 4});
  config.workload.bursts.push_back(
      WorkloadConfig::PublishBurst{0.55 * d, 0.2 * d, 3.0});
  return config;
}

/// Counts the trace by kind and checks copy conservation.  With `rich`
/// set it also measures queue waits (enqueue -> send start) and depths per
/// directed link — the traced run's extra cost.
class StormSink final : public TraceSink {
 public:
  StormSink(std::size_t messages, std::size_t brokers, bool rich)
      : publish_time_(messages, 0.0), brokers_(brokers), rich_(rich) {}

  void record(const TraceEvent& e) override {
    ++records_;
    switch (e.kind) {
      case TraceEventKind::kPublish:
        ++publishes_;
        if (static_cast<std::size_t>(e.message) < publish_time_.size()) {
          publish_time_[static_cast<std::size_t>(e.message)] = e.time;
        }
        break;
      case TraceEventKind::kArrival:
        ++arrivals_;
        break;
      case TraceEventKind::kProcessed:
        ++processed_;
        break;
      case TraceEventKind::kEnqueue:
        ++enqueued_;
        if (rich_) on_enqueue(e);
        break;
      case TraceEventKind::kSendStart:
        ++send_starts_;
        if (rich_) leave_queue(e, /*sent=*/true);
        break;
      case TraceEventKind::kSendEnd:
        ++send_ends_;
        break;
      case TraceEventKind::kDeliver:
        ++deliveries_;
        if (e.valid && static_cast<std::size_t>(e.message) < publish_time_.size()) {
          delays_.push_back(e.time -
                            publish_time_[static_cast<std::size_t>(e.message)]);
        }
        break;
      case TraceEventKind::kPurge:
        ++purges_;
        if (rich_) leave_queue(e, /*sent=*/false);
        break;
      case TraceEventKind::kLoss:
        if (e.neighbor == kNoBroker) {
          ++lost_at_broker_;
        } else {
          ++lost_on_link_;
          if (rich_) leave_queue(e, /*sent=*/false);
        }
        break;
    }
  }

  /// Copy conservation and agreement with the collector; each violated
  /// equation counts its imbalance as failures.
  void check(const SimResult& r, Report& report) const {
    const auto expect = [&](std::uint64_t lhs, std::uint64_t rhs,
                            const std::string& what) {
      if (lhs == rhs) return;
      const std::uint64_t diff = lhs > rhs ? lhs - rhs : rhs - lhs;
      report.fail(diff, "sim_storm " + what + ": " + std::to_string(lhs) +
                            " != " + std::to_string(rhs));
    };
    // Every queued copy is handed on, purged or lost (the run drains).
    expect(enqueued_, send_ends_ + purges_ + lost_on_link_,
           "enqueued == sent + purged + lost");
    expect(arrivals_, publishes_ + send_ends_, "arrivals == publishes + sent");
    expect(arrivals_, processed_ + lost_at_broker_,
           "arrivals == processed + lost at broker");
    expect(r.lost_copies, lost_on_link_ + lost_at_broker_,
           "collector lost == traced losses");
    expect(r.purged_expired + r.purged_hopeless, purges_,
           "collector purged == traced purges");
    expect(r.deliveries, deliveries_, "collector deliveries == traced");
    expect(r.receptions, arrivals_, "collector receptions == traced");
    expect(r.published, publishes_, "collector published == traced");
  }

  std::uint64_t records() const { return records_; }
  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t purges() const { return purges_; }
  std::vector<double>& delays() { return delays_; }
  std::vector<double>& queue_waits() { return waits_; }
  std::vector<double>& queue_depths() { return depths_; }

 private:
  std::uint64_t key(const TraceEvent& e) const {
    return (static_cast<std::uint64_t>(e.message) * brokers_ +
            static_cast<std::uint64_t>(e.broker)) *
               brokers_ +
           static_cast<std::uint64_t>(e.neighbor);
  }
  std::uint64_t link(const TraceEvent& e) const {
    return static_cast<std::uint64_t>(e.broker) * brokers_ +
           static_cast<std::uint64_t>(e.neighbor);
  }
  void on_enqueue(const TraceEvent& e) {
    queued_at_[key(e)] = e.time;
    depths_.push_back(static_cast<double>(++depth_[link(e)]));
  }
  /// A copy left its queue: sent, purged, or dropped with the queue (a
  /// link loss whose copy is still queued; in-flight losses were already
  /// counted out at their send start).
  void leave_queue(const TraceEvent& e, bool sent) {
    const auto it = queued_at_.find(key(e));
    if (it == queued_at_.end()) return;
    if (sent) waits_.push_back(e.time - it->second);
    queued_at_.erase(it);
    --depth_[link(e)];
  }

  std::vector<TimeMs> publish_time_;
  std::uint64_t brokers_;
  bool rich_;
  std::uint64_t records_ = 0, publishes_ = 0, arrivals_ = 0, processed_ = 0,
                enqueued_ = 0, send_starts_ = 0, send_ends_ = 0,
                deliveries_ = 0, purges_ = 0, lost_at_broker_ = 0,
                lost_on_link_ = 0;
  std::vector<double> delays_;
  std::unordered_map<std::uint64_t, TimeMs> queued_at_;
  std::unordered_map<std::uint64_t, std::int64_t> depth_;
  std::vector<double> waits_;
  std::vector<double> depths_;
};

bool same_result(const SimResult& a, const SimResult& b) {
  return a.published == b.published && a.receptions == b.receptions &&
         a.deliveries == b.deliveries &&
         a.valid_deliveries == b.valid_deliveries &&
         a.delivery_rate == b.delivery_rate && a.earning == b.earning &&
         a.purged_expired == b.purged_expired &&
         a.purged_hopeless == b.purged_hopeless &&
         a.lost_copies == b.lost_copies && a.end_time == b.end_time;
}

struct TimedRun {
  SimResult result;
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

TimedRun timed_simulation(const SimConfig& config, TraceSink* sink) {
  TimedRun run;
  const double cpu = process_cpu_s();
  const auto start = Clock::now();
  run.result = run_simulation(config, sink);
  run.wall_s = seconds_since(start);
  run.cpu_s = process_cpu_s() - cpu;
  return run;
}

/// Per-layer replay probes on a freshly built world: routing match_at over
/// every broker, Broker::process and take_next at the busiest broker with
/// queues filled to the depth the traced run recorded, then
/// apply_link_state over the storm's fault batches.
void layer_probes(const SimConfig& config, World& world, double queue_depth,
                  Report& report) {
  const RoutingFabric& fabric = *world.fabric;
  const std::size_t sample = std::min<std::size_t>(world.messages.size(), 200);
  std::vector<const SubscriptionEntry*> rows;
  std::size_t calls = 0;
  std::size_t rows_total = 0;
  const auto match_start = Clock::now();
  for (std::size_t i = 0; i < sample; ++i) {
    for (std::size_t b = 0; b < fabric.broker_count(); ++b) {
      fabric.match_at(static_cast<BrokerId>(b), *world.messages[i], rows);
      rows_total += rows.size();
      ++calls;
    }
  }
  const double match_us = to_us(Clock::now() - match_start);
  report.set("routing.match_at_us", match_us / static_cast<double>(calls),
             "us");
  report.set("routing.rows_per_match_at",
             static_cast<double>(rows_total) / static_cast<double>(calls),
             "count");

  // The busiest broker: the one whose subscription table has most rows.
  BrokerId busiest = 0;
  for (std::size_t b = 0; b < fabric.broker_count(); ++b) {
    const auto id = static_cast<BrokerId>(b);
    if (fabric.table(id).entries().size() >
        fabric.table(busiest).entries().size()) {
      busiest = id;
    }
  }
  const auto strategy = make_strategy(config.strategy, config.ebpc_weight);
  Broker hub(busiest, &fabric, &world.topology.graph, strategy.get(),
             config.processing_delay, /*queues_for_all_links=*/true);
  std::vector<double> process_us;
  std::size_t deepest = 0;
  TimeMs now = 0.0;
  for (const auto& message : world.messages) {
    if (static_cast<double>(deepest) >= queue_depth) break;
    now = message->publish_time();
    const auto start = Clock::now();
    const Broker::FanOut fanout = hub.process(message, now);
    process_us.push_back(to_us(Clock::now() - start));
    for (const Broker::QueueSlot slot : fanout.enqueued) {
      deepest = std::max(deepest, hub.queue_at(slot).size());
    }
  }
  report.set("broker.process_us", median(process_us), "us");

  std::vector<Broker::Dispatch> out;
  std::vector<double> take_us;
  for (Broker::QueueSlot slot = 0;
       slot < static_cast<Broker::QueueSlot>(hub.queue_count()); ++slot) {
    const Broker::QueueSlot one[1] = {slot};
    while (!hub.queue_at(slot).empty()) {
      const auto start = Clock::now();
      hub.take_next(one, now, config.purge, out);
      take_us.push_back(to_us(Clock::now() - start));
    }
  }
  report.require(!take_us.empty(), "take_next probe found no queued copy");
  report.set("scheduling.take_next_us", mean(take_us), "us");
  report.note("take_next probed at broker " + std::to_string(busiest) +
              ", queue depth up to " +
              std::to_string(deepest) + " (run p99 depth " +
              std::to_string(queue_depth) + ")");

  std::vector<double> repair_us;
  if (world.faults) {
    for (const FaultBatch& batch : world.faults->batches()) {
      const auto start = Clock::now();
      world.fabric->apply_link_state(batch.edges_down, batch.edges_up);
      repair_us.push_back(to_us(Clock::now() - start));
    }
  }
  report.set("routing.repair_us", median(repair_us), "us");
}

}  // namespace

void run_sim_storm(const RunContext& ctx, Report& report) {
  const Plan plan = plan_for(ctx);
  std::vector<SimConfig> configs;
  for (std::size_t k = 0; k < plan.worlds; ++k) {
    configs.push_back(storm_config(ctx.seed * plan.worlds + k, plan));
  }

  // Set-up: run_simulation on the same worlds with an empty publish window
  // and no drain, so its event loop ends before the first publish or fault
  // batch.  setup_s is the fastest of the process's set-ups.
  std::vector<SimConfig> quiet = configs;
  for (SimConfig& config : quiet) {
    config.workload.duration = 0.0;
    config.drain_grace = 0.0;
  }
  double setup_s = 0.0;
  const auto set_up = [&] {
    const auto start = Clock::now();
    for (const SimConfig& config : quiet) {
      if (run_simulation(config).published != 0) {
        report.fail(1, "set-up run published messages");
      }
    }
    const double s = seconds_since(start);
    if (setup_s == 0.0 || s < setup_s) setup_s = s;
    report.set("setup_s", setup_s, "s");
    report.set("setup.world_ms", 1000.0 * setup_s, "ms");
  };

  // The worlds' parts, built once for their counts and the routing build
  // time, then released before anything is timed so peak_rss_mb reflects
  // run_simulation; the traced run keeps the first world for its probes.
  std::vector<std::size_t> messages, brokers;
  std::size_t batches = 0;
  double fabric_ms = 0.0;
  World probe_world;
  for (std::size_t k = 0; k < plan.worlds; ++k) {
    World world = build_world(configs[k]);
    messages.push_back(world.messages.size());
    brokers.push_back(world.topology.graph.broker_count());
    const std::size_t n = world.faults ? world.faults->batches().size() : 0;
    report.require(n > 0, "fault timeline compiled to no batches");
    batches += n;
    fabric_ms += world.fabric_build_ms;
    if (ctx.trace && k == 0) probe_world = std::move(world);
  }
  report.set("routing.build_ms", fabric_ms / static_cast<double>(plan.worlds),
             "ms");
  report.set("sim.fault_batches", static_cast<double>(batches), "count");

  // One checked run per world: copy conservation, collector agreement.
  struct Checked {
    TimedRun run;
    std::unique_ptr<StormSink> sink;
  };
  const auto check_worlds = [&](bool rich) {
    std::vector<Checked> out;
    for (std::size_t k = 0; k < plan.worlds; ++k) {
      auto sink = std::make_unique<StormSink>(messages[k], brokers[k], rich);
      TimedRun run = timed_simulation(configs[k], sink.get());
      report.attempt(sink->enqueued());
      sink->check(run.result, report);
      if (run.result.published != messages[k]) {
        report.fail(1, "world messages " + std::to_string(messages[k]) +
                           " != published " +
                           std::to_string(run.result.published));
      }
      out.push_back(Checked{std::move(run), std::move(sink)});
    }
    return out;
  };
  /// Samples pooled over the worlds' sinks.
  const auto pooled = [](std::vector<Checked>& checked,
                         std::vector<double>& (StormSink::*field)()) {
    std::vector<double> all;
    for (Checked& c : checked) {
      const std::vector<double>& v = ((*c.sink).*field)();
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  };

  if (!ctx.trace) {
    // One set-up before the checked runs and one before each timed
    // repetition, so the set-ups sample the host at different moments.
    set_up();
    std::vector<Checked> reference = check_worlds(/*rich=*/false);
    // The repetitions of a world are identical work, and host interference
    // only ever adds time, so each world's fastest repetition is the
    // steadiest estimate of its cost.  The host switches speed within
    // seconds, so this is taken per world (~0.3 s), not per repetition.
    // Each repetition runs on the next CPU, since one vCPU can stay slow
    // for tens of seconds.
    std::vector<double> fastest_s(plan.worlds, 0.0);
    std::size_t published = 0;
    for (int i = 0; i < plan.timed_runs; ++i) {
      pin_to_cpu(static_cast<std::size_t>(i));
      set_up();
      for (std::size_t k = 0; k < plan.worlds; ++k) {
        const TimedRun run = timed_simulation(configs[k], nullptr);
        report.attempt();
        if (!same_result(run.result, reference[k].run.result)) {
          report.fail(1, "timed run " + std::to_string(i) + " of world " +
                             std::to_string(k) +
                             " differs from the checked run");
        }
        if (i == 0 || run.cpu_s < fastest_s[k]) fastest_s[k] = run.cpu_s;
        if (i == 0) published += run.result.published;
      }
    }
    double cpu_s = 0.0;
    for (const double s : fastest_s) cpu_s += s;
    report.set("cpu_us_per_msg", 1e6 * cpu_s / static_cast<double>(published),
               "us");
    std::size_t valid = 0, interested = 0;
    for (const Checked& c : reference) {
      valid += c.run.result.valid_deliveries;
      interested += c.run.result.total_interested;
    }
    std::vector<double> delays = pooled(reference, &StormSink::delays);
    report.set("latency_p50_ms", percentile(delays, 0.50), "ms");
    report.set("latency_p99_ms", percentile(delays, 0.99), "ms");
    report.set("delivery_rate",
               static_cast<double>(valid) / static_cast<double>(interested),
               "ratio");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: every world once untraced (the overhead baseline), then
  // once traced.
  for (int rep = 0; rep < kSetupRepeats; ++rep) set_up();
  double base_cpu_s = 0.0, base_wall_s = 0.0;
  std::vector<SimResult> base;
  for (const SimConfig& config : configs) {
    const TimedRun run = timed_simulation(config, nullptr);
    base_cpu_s += run.cpu_s;
    base_wall_s += run.wall_s;
    base.push_back(run.result);
  }
  std::vector<Checked> traced = check_worlds(/*rich=*/true);
  double traced_cpu_s = 0.0, earning = 0.0, potential = 0.0;
  std::uint64_t records = 0, enqueued = 0, purges = 0, published = 0;
  for (std::size_t k = 0; k < plan.worlds; ++k) {
    const SimResult& r = traced[k].run.result;
    if (!same_result(base[k], r)) {
      report.fail(1, "traced run of world " + std::to_string(k) +
                         " differs from the untraced run");
    }
    traced_cpu_s += traced[k].run.cpu_s;
    earning += r.earning;
    potential += r.potential_earning;
    published += r.published;
    records += traced[k].sink->records();
    enqueued += traced[k].sink->enqueued();
    purges += traced[k].sink->purges();
  }
  const auto per_msg = [&](std::uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(published);
  };
  std::vector<double> delays = pooled(traced, &StormSink::delays);
  std::vector<double> waits = pooled(traced, &StormSink::queue_waits);
  report.set("trace.overhead_frac", traced_cpu_s / base_cpu_s - 1.0, "ratio");
  report.set("sim.run_s", base_wall_s, "s");
  report.set("latency_p99_ms", percentile(delays, 0.99), "ms");
  report.set("sim.events_per_msg", per_msg(records), "count");
  report.set("broker.copies_per_msg", per_msg(enqueued), "count");
  report.set("scheduling.queue_wait_p99_ms", percentile(waits, 0.99), "ms");
  report.set("scheduling.purge_frac",
             static_cast<double>(purges) / static_cast<double>(enqueued),
             "ratio");
  report.set("scheduling.earning_frac",
             potential > 0.0 ? earning / potential : 0.0, "ratio");
  layer_probes(configs[0], probe_world,
               percentile(traced[0].sink->queue_depths(), 0.99), report);
}

}  // namespace perfbench
