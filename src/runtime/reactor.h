// Event-driven live runtime: reactor worker pool + timer wheel.
//
// The thread-per-link runtime demonstrates the scheduling engine under real
// concurrency but sleeps an OS thread through every processing delay and
// every transmission — topology size dictates thread count, and a few
// hundred links is the practical ceiling.  The reactor inverts that: a
// fixed pool of N workers (N = hardware threads, not topology size) owns
// per-broker and per-link *state machines*, and every delay is a pending
// timer in a hierarchical wheel (common/timer_wheel.h) over the scaled
// LiveClock.
//
// State machines:
//   * Broker Rx: RxIdle -> Processing.  A deposited message on an idle
//     broker arms a PD timer; the timer's expiry runs the match + fan-out
//     (the same FanOutGrouper/precompute_scores path the simulator broker
//     and the legacy receiver use) and re-arms while input remains —
//     brokers process one message per PD, exactly like the legacy
//     receiver's pop/sleep loop.
//   * Link Tx: TxIdle -> Transmitting.  Enqueueing into an idle link's
//     OutputQueue starts a send inline: purge + take_next under no lock
//     (the owning worker is the only toucher), a sampled duration from the
//     link's per-edge RNG stream, one wheel timer.  The timer's expiry
//     delivers to the downstream broker and pops the next message.
//
// Placement and handoff: brokers are assigned to workers with the sharded
// engine's ShardPlan (greedy edge cut — most fan-outs stay worker-local);
// each directed link lives with its *source* broker's worker, so enqueue,
// pick and purge are always same-worker.  A transmission that completes
// toward a broker on another worker crosses through the (source worker,
// destination worker) SpscQueue mailbox — the only synchronisation in
// steady state; there are no per-broker blocking channels and no per-link
// locks.
//
// Park and wake: every worker parks in one place, an epoll wait (Poller)
// on its own eventfd doorbell, bounded by its timer wheel's next deadline
// at nanosecond resolution.  A producer pushes, then rings the doorbell
// only if the worker has raised its `parked` flag; the worker raises the
// flag, then re-checks its mailboxes, injector and command list before it
// waits.  Every write to the flag is an acq_rel exchange, so either the
// producer sees the flag or the worker sees the push — and a busy worker
// costs its producers no syscall.
//
// Timer precision: start() spawns the workers under a ScopedTimerSlack
// (timer_slack.h), and a new thread takes its creator's slack, so every
// worker runs its whole life with 1 ns slack: a park bounded by a wheel
// deadline wakes at that model instant instead of up to the kernel's
// default 50 us late.  start() names each worker kWorkerThreadPrefix + id
// before it returns, so tools and tests can find the workers in /proc, and
// each worker records the slack it reads of itself on entry
// (worker_timer_slacks()), which needs no capability to read.
//
// Socket mode: worker 0 also drives the shard's NetEndpoint (no transport
// thread).  It parks on the endpoint's poller, so trunk sockets, its
// doorbell, its wheel deadline and the redial backoff share one wait; it
// dispatches trunk events inline (an inbound copy lands in its broker's
// input on worker 0, or in the owner's mailbox) and flushes each trunk
// once per pass.  A copy that another worker sends out of the shard
// reaches worker 0 through worker 0's SPSC mailbox from that worker, so
// forward_remote runs on exactly one thread.
//
// Drain/stop share LiveNetwork's outstanding-copies counter: workers exit
// once stop() was requested and no copy remains in flight, finishing
// queued work first (the legacy semantics).  Worker 0 stops the endpoint
// at the first pass that sees the request and settles its never-acked
// copies as losses, so the counter can reach zero.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "broker/fanout.h"
#include "runtime/live_broker.h"
#include "routing/fabric.h"
#include "scheduling/purge.h"
#include "topology/edge_map.h"

namespace bdps {

class NetEndpoint;

/// Reactor worker thread names: the prefix plus the worker id.
inline constexpr std::string_view kWorkerThreadPrefix = "bdps-w";

struct ReactorOptions {
  TimeMs processing_delay = 2.0;
  PurgePolicy purge;
  /// Worker count; 0 = std::thread::hardware_concurrency().  Clamped to
  /// [1, broker count] (the shard plan needs a non-empty shard each).
  std::size_t workers = 0;
  /// Timer-wheel resolution in *simulated* milliseconds.  Deadline checks
  /// use the exact clock, so resolution only quantises when callbacks run;
  /// 0.25 sim ms is far below any PD/transmission scale the paper uses.
  TimeMs wheel_tick_ms = 0.25;
  /// Cross-process serving (socket mode): shard id of every broker in the
  /// full topology (nullptr = everything is local) and the trunk transport
  /// worker 0 drives.  A transmission whose downstream broker lives in
  /// another shard is handed to endpoint->forward_remote on worker 0: a
  /// true return transfers the copy's outstanding increment to the
  /// transport (released when the covering ack arrives); false means the
  /// transport is stopped — the reactor settles the copy as a loss itself.
  const std::vector<std::uint32_t>* broker_shard = nullptr;
  std::uint32_t shard = 0;
  NetEndpoint* endpoint = nullptr;
};

/// One directed overlay link the runtime serves: resolved by LiveNetwork
/// from the routing tables, with the link's dedicated RNG stream (split
/// from LiveOptions::seed once per true EdgeId — the engines' discipline).
struct LiveLinkSpec {
  BrokerId from = kNoBroker;
  BrokerId to = kNoBroker;
  EdgeId edge = kNoEdge;
  LinkParams params;
  Rng rng;
};

class Reactor {
 public:
  /// All referenced objects must outlive the reactor.  `out_links` is the
  /// per-broker ascending LinkRef rows the fan-out groupers bind to;
  /// `outstanding` is LiveNetwork's in-flight copy counter (shared so
  /// drain() sees both modes identically).
  Reactor(const Topology* topology, const RoutingFabric* fabric,
          const Strategy* strategy, ReactorOptions options, LiveClock* clock,
          LiveStats* stats, std::atomic<std::size_t>* outstanding,
          std::vector<LiveLinkSpec> links,
          const std::vector<std::vector<LinkRef>>* out_links);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void start();

  /// Hands a published message to its edge broker's worker; false once
  /// stopped (the caller unwinds its outstanding increment, mirroring the
  /// closed-channel contract of the legacy mode).
  bool publish(BrokerId target, std::shared_ptr<const Message> message);

  /// Requests shutdown and joins the workers; pending copies are finished
  /// first.  Idempotent.
  void stop();

  std::size_t worker_count() const { return workers_.size(); }

  /// The timer slack each worker read of itself on entering its loop, by
  /// worker id; -1 for a worker that has not run yet (after stop() every
  /// started worker has).
  std::vector<long> worker_timer_slacks() const;

  /// Marks one directed served link up or down (fault churn; thread-safe,
  /// applied asynchronously by the owning worker).  Down cancels the
  /// pending transmission timer and requeues the in-flight copy — the
  /// frame was cut mid-wire — and the queue then *holds* until link-up
  /// re-arms it.  Unknown or unserved edges are ignored.
  void set_link_state(EdgeId edge, bool up);

  /// Socket mode, worker 0 only (the endpoint's on_forward handler): lands
  /// one trunk copy at its broker — inline when worker 0 owns it, through
  /// the owner's mailbox otherwise.  The caller has already counted it
  /// outstanding.
  void deposit_trunk(BrokerId target, std::shared_ptr<const Message> message);

  /// Socket mode: severs our dialed trunk to `peer` (thread-safe; worker 0
  /// calls NetEndpoint::drop_peer on its next pass).
  void drop_trunk(int peer);

  /// Crashes or restarts one broker (thread-safe, applied asynchronously
  /// by the owning worker).  A crash is the simulator's semantics: the
  /// input queue and every outgoing OutputQueue are wiped (copies counted
  /// as losses), the pending rx/tx timers die with them, and later
  /// arrivals are lost until the broker comes back up.  The *links* of a
  /// crashed broker are governed separately via set_link_state — fault
  /// compilation folds a broker outage into its incident edges.
  void set_broker_state(BrokerId broker, bool up);

 private:
  struct Inbound;
  struct TimerEvent;
  struct BrokerState;
  struct LinkState;
  struct Worker;
  struct Command {
    enum class Kind : std::uint8_t { kLink, kBroker, kDropTrunk };
    Kind kind = Kind::kLink;
    /// links_ index (kLink), BrokerId (kBroker) or peer shard (kDropTrunk).
    std::uint32_t index = 0;
    bool up = false;
  };

  void push_command(Worker& worker, Command command);
  void apply_commands(Worker& worker);
  void apply_broker_command(Worker& worker, BrokerId broker, bool up);

  std::uint64_t tick_ceil(TimeMs at) const;
  void worker_loop(Worker& worker);
  void drain_inbound(Worker& worker);
  void advance_wheel(Worker& worker);
  bool has_pending(Worker& worker);
  void park(Worker& worker);
  void wake(Worker& worker);
  bool remote(BrokerId broker) const;
  void route(Worker& from, BrokerId to, std::shared_ptr<const Message> message);
  void arrive(Worker& worker, BrokerId to,
              std::shared_ptr<const Message> message);
  void deposit(Worker& worker, BrokerId broker,
               std::shared_ptr<const Message> message);
  void schedule_rx(Worker& worker, BrokerId broker);
  void on_rx_done(Worker& worker, BrokerId broker);
  void start_transmission(Worker& worker, std::uint32_t link_index);
  void on_tx_done(Worker& worker, std::uint32_t link_index);

  const Topology* topology_;
  const RoutingFabric* fabric_;
  const Strategy* strategy_;
  ReactorOptions options_;
  LiveClock* clock_;
  LiveStats* stats_;
  std::atomic<std::size_t>* outstanding_;

  std::vector<std::unique_ptr<BrokerState>> brokers_;
  std::vector<std::unique_ptr<LinkState>> links_;
  /// Flat per-edge index into links_ (-1 where no subscription routes).
  EdgeMap<std::int32_t> link_by_edge_;
  /// Served links grouped by their source broker (crash wipes walk this).
  std::vector<std::vector<std::uint32_t>> links_of_broker_;
  /// ShardPlan assignment: which worker owns each broker (and its links).
  std::vector<std::uint32_t> owner_of_broker_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace bdps
