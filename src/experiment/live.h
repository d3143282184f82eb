// Live-runtime experiment wiring: SimConfig-shaped runs through
// LiveNetwork — in one process or across a socket-backed cluster.
//
// run_simulation (experiment/runner.h) proves the scheduling math in
// virtual time; run_live replays the same topology + workload description
// through the live runtime on the scaled wall clock — the harness the
// live demo, the link-scaling bench (bench/micro_live_runtime) and the
// ceiling probe (tools/live_scaling) all share.  Messages are paced to
// their generated publish instants and published under their *generated*
// ids, so delivery records name the same (subscriber, message) pairs in
// every mode and every process.
//
// Knobs the simulator does not have: `mode` picks the in-process reactor
// or the socket-backed shard runtime, `shards` sizes a socket cluster
// (run_live itself hosts the shards in-process — the differential gate
// for tests; tools/brokerd runs one shard per OS process via the same
// building blocks), `workers` sizes each reactor pool, `speedup` maps
// simulated to real milliseconds.  A SimConfig fault plan (sim/faults/)
// compiles to the simulator's batches (same streams, same order) and is
// replayed on the scaled clock in the compiler's canonical order: each
// broker crash, restart and link half becomes a one-entry batch that the
// owning reactor worker applies with BrokerStep::apply_faults (down cut
// edges also sever their trunks for real).  One rule differs on purpose:
// live, a link-down holds its queue but never cuts the frame already on
// the wire.  Features that need a believed-vs-true split or have no live
// rule (belief noise, online estimation, link kills, multipath dedup,
// routing repair) are simulator-only and ignored here.
//
// The LiveWorld / drive / drain helpers are the shared contract between
// run_live and tools/brokerd: every participant rebuilds the identical
// world from the serialized config (format_live_config/parse_live_config,
// doubles as hexfloat so the round-trip is bit-exact) and paces only the
// publishers whose edge broker lives in its shard.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "experiment/config.h"
#include "routing/fabric.h"
#include "routing/subscription.h"
#include "runtime/live_network.h"
#include "sim/faults/timeline.h"

namespace bdps {

struct LiveRunConfig {
  /// Topology, workload, strategy, purge, PD and seed — same vocabulary as
  /// the simulator runner.
  SimConfig sim;
  LiveMode mode = LiveMode::kReactor;
  /// Reactor pool size per instance; 0 = hardware threads.
  std::size_t workers = 0;
  /// Simulated milliseconds per real millisecond.
  double speedup = 500.0;
  /// Inert (reactor timers fire at their exact instants); kept while
  /// perfbench/cpp/live_trunk.cpp assigns it.
  TimeMs wheel_tick_ms = 0.25;
  /// Cap on published messages (0 = the full generated workload) — benches
  /// bound wall time with it.
  std::size_t message_limit = 0;
  /// Socket-mode shard count: >= 2 partitions the brokers with
  /// greedy_edge_cut (topology/shard_plan.h) and runs one LiveNetwork per
  /// shard wired over local AF_UNIX trunks; <= 1 runs a single instance.
  /// Ignored by kReactor.
  std::size_t shards = 0;
  /// Trunk redial backoff (socket mode).
  double reconnect_initial_ms = 5.0;
  double reconnect_max_ms = 250.0;
  /// Socket-mode trunk addressing: IPv4 literal each shard's listener
  /// binds ("" = loopback, the in-process-cluster default) and the host
  /// dialed over TCP per peer shard (indexed by shard id; a missing or
  /// empty entry means "same host, local socket").  A multi-machine
  /// brokerd cluster sets bind_host="0.0.0.0" and lists every shard's
  /// address in peer_hosts.
  std::string bind_host;
  std::vector<std::string> peer_hosts;
};

struct LiveRunResult {
  std::size_t published = 0;
  std::size_t receptions = 0;
  std::size_t deliveries = 0;
  std::size_t valid_deliveries = 0;
  std::size_t purged = 0;
  /// Copies destroyed by faults (crash wipes, severed trunks at stop).
  std::size_t lost = 0;
  double earning = 0.0;
  /// Directed subscribed links served (summed over shards).
  std::size_t links = 0;
  /// Reactor pool size (summed over shards).
  std::size_t workers = 0;
  /// Real milliseconds from start() until drained.
  double wall_ms = 0.0;
  /// Publication copies that crossed a trunk (0 unless socket mode).
  std::uint64_t trunk_forwards = 0;
  /// Trunk drops healed by the reconnect schedule.
  std::uint64_t trunk_reconnects = 0;
  /// Every delivery record (all shards) — the equality gates compare these
  /// as (subscriber, message) multisets across modes.
  std::vector<LiveDelivery> delivery_log;
};

/// Builds the config's topology and workload, runs the live network (or
/// in-process socket cluster) until every published copy is delivered,
/// purged or lost, and reports merged totals.
LiveRunResult run_live(const LiveRunConfig& config);

// ---- Cluster building blocks (shared with tools/brokerd) ----

/// The deterministic world every participant rebuilds from the same
/// config: run_simulation's streams (RunStreams) in run_simulation's
/// order, so a (seed, config) pair names the same topology, subscriptions,
/// message schedule and fault timeline everywhere, simulator included.
struct LiveWorld {
  Topology topology;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> strategy;
  /// Publication schedule, nondecreasing publish time, ids dense 0..n-1
  /// in that order.
  std::vector<std::shared_ptr<const Message>> messages;
  /// Compiled fault batches without link kills (nullptr when the plan is
  /// empty).
  std::shared_ptr<const CompiledFaults> faults;
};

LiveWorld build_live_world(const LiveRunConfig& config);

/// LiveOptions for shard `shard` of a `shard_count`-way socket cluster
/// (pass shard_count <= 1 for the single-instance modes).
LiveOptions live_options_for(const LiveRunConfig& config, int shard,
                             int shard_count,
                             std::vector<std::uint32_t> broker_shard);

/// Paces the world's publish schedule and fault batches on the scaled
/// clock for every instance in `nets` (each publish goes to the instance
/// serving the publisher's edge broker; fault transitions go to all —
/// unserved halves are ignored).  Batches apply in the compiler's
/// canonical order: brokers down, edges down, brokers up, edges up.
/// Returns the number of messages this call published.
std::size_t drive_live_schedule(const LiveWorld& world,
                                const std::vector<LiveNetwork*>& nets);

/// Cluster quiescence barrier: blocks until the *sum* of outstanding
/// copies across `nets` reads zero on two polls in a row.  The
/// ownership-transfer accounting (net/endpoint.h) guarantees the sum
/// never transiently hits zero while a copy is in flight, so the repeat
/// poll only guards against reading the counters mid-update.
void drain_live_cluster(const std::vector<LiveNetwork*>& nets);

// ---- Config serialization (the brokerd control plane's kConfig body) ----

/// Newline key=value text; doubles are rendered as C hexfloats so
/// parse_live_config(format_live_config(c)) rebuilds the identical world
/// bit-for-bit.  A non-empty fault plan follows a "%%faults" marker line
/// in format_fault_plan's directive syntax.
std::string format_live_config(const LiveRunConfig& config);
LiveRunConfig parse_live_config(const std::string& text);

/// Inverse of topology_name (throws std::invalid_argument on unknown).
TopologyKind parse_topology(const std::string& name);

/// One deadline-free, price-1, match-everything subscriber per subscriber
/// home — the flood workload of the link-scaling bench and ceiling probe
/// (every subscribed link carries every message, and a slow runtime pays
/// in wall time, never in purges).
std::vector<Subscription> flood_subscriptions(const Topology& topology);

}  // namespace bdps
