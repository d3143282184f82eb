// Live broker overlay — event-driven reactor, in-process or socket-backed.
//
// Both modes drive the *same* broker step the simulators run
// (sim/broker_step.h): one BrokerStep per instance, built over the full
// topology with the true graph as beliefs and processing serialized, so
// OutputQueue + SchedulerState picks, eq. (11) purges, fan-out admission
// (publisher mask + activation-window churn filter), holds and crashes are
// the simulator's rules, with deadlines checked in (scaled) real time
// against the LiveClock.  The modes differ only in reach:
//
//   * LiveMode::kReactor (default) — a fixed pool of N workers
//     (runtime/reactor.h): brokers are assigned to workers with the
//     sharded engine's ShardPlan, processing delays and transmissions
//     sleep as timers in each worker's EventQueue (sim/event_queue.h), and
//     cross-worker handoff rides SpscQueue mailboxes plus an eventfd
//     doorbell rung only for a parked worker.  Thread count is
//     hardware-sized, so one process serves 10k+ links.  On the virtual
//     clock (start_virtual) one worker runs bit for bit the event order of
//     run_simulation with serialize_processing — the sim<->live gate.
//   * LiveMode::kSocket — one shard of a distributed overlay.  The
//     instance serves the brokers LiveNetOptions::broker_shard assigns to
//     it plus every directed link *leaving* them (its BrokerStep holds the
//     whole overlay and touches only those); a transmission that
//     completes toward a remote broker rides a trunk — a local AF_UNIX
//     socket by default, TCP to the hosts LiveNetOptions::peer_hosts names
//     (net/endpoint.h: per-trunk cumulative-ack reliability,
//     capped-backoff reconnect) instead of a worker mailbox.  The shard
//     runs exactly `workers` threads: reactor worker 0 drives the
//     endpoint inside its own event loop (one epoll park for trunk
//     sockets, doorbell and timers), so a forward goes straight into the
//     peer socket's buffer and an inbound copy arrives inline.
//     Fault replay on a cut edge forces a real disconnect (drop_trunk)
//     and the healed trunk re-enters through the same set_link_state path
//     the storm engine drives.
//
// Transmission sampling follows the engines' per-edge RNG stream
// discipline: one stream per true EdgeId, split in edge-id order from the
// link stream of RunStreams(LiveOptions::seed) — the stream run_simulation
// hands its engines — so a link's draw sequence is a pure function of the
// seed and the topology, independent of worker interleaving, mode, and
// shard layout (each stream is consumed by exactly one shard, the one
// serving the edge).
//
// Outstanding-copy accounting is ownership-transferring (see
// net/endpoint.h): a copy forwarded to a peer keeps its local increment
// until the peer's cumulative ack arrives, while the peer increments
// before acking — summed over shards the counter never transiently hits
// zero mid-flight, so cluster drain is `sum(outstanding) == 0` re-checked
// once for stability.  Single-instance `drain()` blocks on the local
// counter; `stop()` has worker 0 settle unacked trunk copies as losses,
// then finishes pending reactor work and joins all threads.
#pragma once

#include <optional>
#include <thread>
#include <utility>

#include "net/endpoint.h"
#include "runtime/live_broker.h"
#include "runtime/reactor.h"
#include "scheduling/purge.h"
#include "topology/edge_map.h"

namespace bdps {

enum class LiveMode {
  /// Reactor worker pool + per-worker timer heap, whole overlay in-process
  /// (default).
  kReactor,
  /// One shard of the overlay; cut edges ride trunks (local AF_UNIX
  /// sockets unless LiveNetOptions names hosts, which are dialed over TCP).
  kSocket,
};

/// Shard layout + transport knobs for LiveMode::kSocket.
struct LiveNetOptions {
  int shard = 0;
  int shard_count = 1;
  /// Shard id of every broker in the full topology.  Empty = every broker
  /// is local (single-shard socket mode).
  std::vector<std::uint32_t> broker_shard;
  /// Trunk redial backoff: first delay, doubling to the cap.
  double reconnect_initial_ms = 5.0;
  double reconnect_max_ms = 250.0;
  /// IPv4 literal the trunk listener binds ("" = 127.0.0.1 — the
  /// single-host default; "0.0.0.0" = all interfaces for real
  /// multi-machine deployments).  "", 127.0.0.1 and 0.0.0.0 also open the
  /// listener's local AF_UNIX name for same-host peers.
  std::string bind_host;
  /// IPv4 literal dialed over TCP per peer shard, indexed by shard id; a
  /// missing or empty entry means "same host, local socket".
  std::vector<std::string> peer_hosts;
};

struct LiveOptions {
  TimeMs processing_delay = 2.0;
  PurgePolicy purge;
  /// Simulated milliseconds per real millisecond.
  double speedup = 100.0;
  /// The run's seed: the per-EdgeId transmission streams are split from
  /// RunStreams(seed).link, as run_simulation's are.
  std::uint64_t seed = 1;
  LiveMode mode = LiveMode::kReactor;
  /// Reactor worker count; 0 = hardware threads.
  std::size_t workers = 0;
  /// Socket-mode shard layout (ignored by kReactor).
  LiveNetOptions net;
};

class LiveNetwork {
 public:
  /// All referenced objects must outlive the network.  In socket mode the
  /// trunk listener is bound here (trunk_port() is valid immediately);
  /// call connect_trunks() with every shard's port before start().
  LiveNetwork(const Topology* topology, const RoutingFabric* fabric,
              const Strategy* strategy, LiveOptions options);
  /// Joins the threads without the quiescence checks: a destructor must
  /// not throw, so only an explicit stop() reports a broken invariant.
  ~LiveNetwork();

  LiveNetwork(const LiveNetwork&) = delete;
  LiveNetwork& operator=(const LiveNetwork&) = delete;

  /// Starts the clock and the reactor workers.
  void start();

  /// Starts on the virtual clock instead (kReactor with one worker only;
  /// throws std::logic_error otherwise): no worker thread runs, and
  /// run_until drives the worker.  Publishes take the virtual instant.
  /// drain() is for the wall clock; drive to kNoDeadline instead.
  void start_virtual();
  /// Virtual clock: runs everything due up to `instant` (Reactor::run_until).
  void run_until(TimeMs instant);

  /// Publishes a message now (the publish timestamp is taken from the live
  /// clock; `template_message`'s head/size/deadline are kept; the id is
  /// allocated from a process-local counter).  The publisher's edge broker
  /// must be served by this instance.
  void publish(PublisherId publisher, const Message& template_message);

  /// Cluster variant: the caller assigns the message id, so delivery
  /// records align across processes that each pace a slice of the
  /// workload.
  void publish(PublisherId publisher, const Message& template_message,
               MessageId id);

  /// Blocks until no message copies remain in flight *locally*.  For a
  /// multi-shard cluster, quiesce on the sum of outstanding() across
  /// instances instead (a local zero is not stable while a peer still
  /// holds unacked copies toward us).
  void drain();

  /// Fault churn: marks the undirected link (a, b) down or up in both
  /// directions (thread-safe, applied asynchronously by the owning
  /// workers).  While down the link's queue *holds* its copies; a frame
  /// already on the wire completes.
  /// Callers must bring links back up (or rely on purges) before drain(),
  /// or held copies keep it blocked.  Unknown or unserved links are
  /// ignored.  In socket mode a down cut edge also severs its trunk (a
  /// real socket close); the trunk heals itself with capped backoff and
  /// the edge re-enters service once both the fault is lifted *and* the
  /// trunk is re-established.
  void set_link_state(BrokerId a, BrokerId b, bool up);

  /// Single-direction variant keyed by the true graph's EdgeId (the
  /// vocabulary of CompiledFaults batches).
  void set_edge_state(EdgeId edge, bool up);

  /// Crashes or restarts one broker with the simulator's semantics: the
  /// input queue and every outgoing link queue are wiped (losses), the
  /// message in processing and a frame on the wire are lost, and arrivals
  /// while down are lost.  Ignored for brokers this instance
  /// does not serve.  Fault compilation already folds a broker outage
  /// into its incident edges, so callers replaying CompiledFaults batches
  /// get the link-down half from set_edge_state.
  void set_broker_state(BrokerId broker, bool up);

  /// Stops and joins all threads (idempotent).  In socket mode worker 0
  /// first stops the transport and settles never-acked trunk copies as
  /// losses so the reactor workers can observe a zero outstanding count
  /// and exit.  Without NDEBUG, a stop that leaves no copy outstanding
  /// asserts BrokerStep::check_invariants and Reactor::check_invariants.
  void stop();

  const LiveStats& stats() const { return stats_; }
  const LiveClock& clock() const { return clock_; }
  LiveMode mode() const { return options_.mode; }
  std::size_t worker_count() const {
    return reactor_ ? reactor_->worker_count() : 0;
  }
  /// Reactor::worker_timer_slacks(): each worker's own timer slack reading.
  std::vector<long> worker_timer_slacks() const {
    return reactor_ ? reactor_->worker_timer_slacks() : std::vector<long>{};
  }
  /// Directed subscribed links this instance serves.
  std::size_t link_count() const { return link_count_; }

  /// True when `broker` is assigned to this instance's shard.
  bool serves(BrokerId broker) const;
  /// In-flight copies owned by this instance (includes trunk copies not
  /// yet acked by their receiving peer).
  std::size_t outstanding() const {
    return outstanding_.load(std::memory_order_acquire);
  }

  // ---- Socket mode ----
  /// Trunk listen port (0 unless socket mode).
  std::uint16_t trunk_port() const;
  /// Records every peer shard's port (indexed by shard id); worker 0
  /// dials them once start() runs.  Throws std::logic_error after start().
  void connect_trunks(const std::vector<std::uint16_t>& ports);
  /// Blocks until every dialed trunk is up (false on timeout).
  bool wait_trunks(std::chrono::milliseconds timeout);
  /// Transport diagnostics (0 unless socket mode).
  std::uint64_t trunk_forwards_sent() const;
  std::uint64_t trunk_forwards_received() const;
  std::uint64_t trunk_reconnects() const;
  /// NetEndpoint::local_trunks(): established trunk sockets that are
  /// AF_UNIX (0 unless socket mode).
  int local_trunks() const;

 private:
  void on_trunk_forward(BrokerId target, Message&& message);
  void on_trunk_acked(std::uint64_t n);
  void on_trunk_peer_state(int peer, bool up);
  int shard_of(BrokerId broker) const;

  const Topology* topology_;
  LiveOptions options_;

  LiveClock clock_;
  LiveStats stats_;

  /// The overlay the reactor workers drive.
  BrokerStep step_;
  std::size_t link_count_ = 0;

  // ---- Socket mode ----
  /// Declared before reactor_ so it outlives the workers that drive it.
  std::unique_ptr<NetEndpoint> endpoint_;
  /// Shard id per broker (socket mode; empty otherwise).
  std::vector<std::uint32_t> broker_shard_;
  /// Served cut edges grouped by destination peer shard.
  std::vector<std::vector<EdgeId>> cut_edges_of_peer_;
  /// Effective cut-edge state = !fault_down && trunk_up; both halves flip
  /// from different threads, so the fold is mutex-guarded.
  std::mutex net_state_mutex_;
  std::vector<char> edge_fault_down_;  // indexed by EdgeId (served cuts only)
  std::vector<char> trunk_up_;         // indexed by peer shard

  /// Match scratch of on_trunk_forward, which stamps each received copy;
  /// the endpoint runs that handler inline on reactor worker 0 only.
  SubscriptionIndex::Scratch trunk_scratch_;

  std::unique_ptr<Reactor> reactor_;

  std::atomic<std::size_t> outstanding_{0};
  bool started_ = false;
  std::atomic<MessageId> next_message_id_{0};
};

}  // namespace bdps
