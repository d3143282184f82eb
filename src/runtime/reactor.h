// Event-driven live runtime: reactor worker pool + per-worker timer queue.
//
// The reactor is the second driver of BrokerStep (sim/broker_step.h): the
// per-broker rules — reception, processing, the eq. (11) purge and the
// EB/PC/EBPC pick at each link-free instant, holds, crashes — are the ones
// Simulator runs, applied through a live Effects policy.  The reactor
// only orders events on the scaled LiveClock: a fixed pool of N workers
// (N = hardware threads, not topology size) owns the brokers, and every
// processing delay and every transmission is one pending timer in its
// worker's EventQueue, the queue Simulator pops in (instant, schedule
// order).  A timer's event runs at the clock reading when it fires, so
// delivery delays measure real lateness.
// Processing is serialized (one message per broker per PD, arrivals wait
// in the fig. 2 input queue): a recorded decision, not a knob.
//
// Placement and handoff: brokers are assigned to workers with the greedy
// edge cut of topology/shard_plan.h (most fan-outs stay worker-local);
// each directed link lives with its *source* broker's worker, so enqueue,
// pick and purge are always same-worker.  A same-instant arrival runs
// after the current step from a worker-local FIFO, or crosses to the
// destination broker's worker through the (source worker, destination
// worker) SpscQueue mailbox — the only synchronisation
// in steady state; there are no per-broker blocking channels and no
// per-link locks.
//
// Faults: set_link_state and set_broker_state become one-entry fault
// batches that the owning worker applies with BrokerStep::apply_faults.
// A link-down holds the queue and never cuts (the frame on the wire
// completes); a crash wipes the broker's queues as losses and cuts the
// copy it was processing or sending (the cut tests read the broker's
// last-crash instant, written by its worker).
//
// Park and wake: every worker parks in one place, an epoll wait (Poller)
// on its own eventfd doorbell, bounded by its earliest timer's instant
// (rounded up to the next nanosecond, so it never wakes before the timer
// is due).  A producer pushes, then rings the doorbell only if the worker
// has raised its `parked` flag; the worker raises the flag, then
// re-checks its mailboxes, injector and command list before it waits.
// Every write to the flag is an acq_rel exchange, so either the producer
// sees the flag or the worker sees the push — and a busy worker costs its
// producers no syscall.
//
// Timer precision: start() spawns the workers under a ScopedTimerSlack
// (timer_slack.h), and a new thread takes its creator's slack, so every
// worker runs its whole life with 1 ns slack: a park bounded by a timer
// wakes at that model instant instead of up to the kernel's default 50 us
// late.  start() names each worker kWorkerThreadPrefix + id before it
// returns, so tools and tests can find the workers in /proc, and each
// worker records the slack it reads of itself on entry
// (worker_timer_slacks()), which needs no capability to read.
//
// Both clocks fire timers through one loop (fire_due): every timer due at
// or before a limit, in queue order.  The wall loop's limit is the clock
// reading, and an event is stamped with the reading at which it fires.
// Virtual clock (run_until): no worker thread runs; the caller drives the
// single worker up to an instant, and the clock is set to each timer's
// exact model instant before it fires — Simulator's event order.
//
// Socket mode: worker 0 also drives the shard's NetEndpoint (no transport
// thread).  It parks on the endpoint's poller, so trunk sockets, its
// doorbell, its earliest timer and the redial backoff share one wait; it
// dispatches trunk events inline (an inbound copy arrives at its broker
// on worker 0, or in the owner's mailbox) and flushes each trunk once per
// pass.  A copy that another worker sends out of the shard reaches worker
// 0 through worker 0's SPSC mailbox from that worker, so forward_remote
// runs on exactly one thread.
//
// Drain/stop share LiveNetwork's outstanding-copies counter: workers exit
// once stop() was requested and no copy remains in flight, finishing
// queued work first.  Worker 0 stops the endpoint at the first pass that
// sees the request and settles its never-acked copies as losses, so the
// counter can reach zero.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "runtime/live_broker.h"
#include "sim/broker_step.h"

namespace bdps {

class NetEndpoint;

/// Reactor worker thread names: the prefix plus the worker id.
inline constexpr std::string_view kWorkerThreadPrefix = "bdps-w";

struct ReactorOptions {
  /// Worker count; 0 = std::thread::hardware_concurrency().  Clamped to
  /// [1, broker count] (the shard plan needs a non-empty shard each).
  std::size_t workers = 0;
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

class Reactor {
 public:
  /// All referenced objects must outlive the reactor.  `step` is the
  /// overlay the workers drive (fault state allocated, processing
  /// serialized); `outstanding` is LiveNetwork's in-flight copy counter
  /// (shared so drain() sees both modes identically).
  Reactor(BrokerStep* step, ReactorOptions options, LiveClock* clock,
          LiveStats* stats, std::atomic<std::size_t>* outstanding);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void start();

  /// Virtual clock only (`clock` in virtual mode, one worker, start() never
  /// called): runs every command, inbound copy and timer due up to
  /// `instant`, timers in (instant, schedule order) with the clock reading
  /// each one's exact instant, then leaves the clock at `instant`.
  void run_until(TimeMs instant);

  /// Hands a published message to its edge broker's worker; false once
  /// stopped (the caller unwinds its outstanding increment).
  bool publish(BrokerId target, std::shared_ptr<const Message> message);

  /// Requests shutdown and joins the workers; pending copies are finished
  /// first.  Idempotent.
  void stop();

  std::size_t worker_count() const { return workers_.size(); }

  /// The timer slack each worker read of itself on entering its loop, by
  /// worker id; -1 for a worker that has not run yet (after stop() every
  /// started worker has).
  std::vector<long> worker_timer_slacks() const;

  /// Marks one directed link up or down (fault churn; thread-safe, applied
  /// asynchronously by the worker owning its source broker).  A frame on
  /// the wire completes; the queue then *holds* until link-up kicks it.
  /// Unknown edges are ignored.
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
  /// by the owning worker) with BrokerStep's crash rule: the input queue
  /// and every output queue are wiped (copies counted as losses), the
  /// message in processing and a frame on the wire are lost when their
  /// timers fire, and arrivals are lost until the broker comes back up.
  /// The *links* of a crashed broker are governed separately via
  /// set_link_state — fault compilation folds a broker outage into its
  /// incident edges.
  void set_broker_state(BrokerId broker, bool up);

  /// Quiescence invariants, for a reactor whose workers are joined (or
  /// never started) with no copy outstanding: every worker's timer queue,
  /// local FIFO and mailboxes are empty.  Throws std::logic_error naming
  /// the first violation.
  void check_invariants() const;

 private:
  struct Effects;
  struct Worker;
  struct Command {
    enum class Kind : std::uint8_t { kLink, kBroker, kDropTrunk };
    Kind kind = Kind::kLink;
    /// EdgeId (kLink), BrokerId (kBroker) or peer shard (kDropTrunk).
    std::uint32_t index = 0;
    bool up = false;
  };

  void push_command(Worker& worker, Command command);
  void apply_commands(Worker& worker);

  void worker_loop(Worker& worker);
  void drain_inbound(Worker& worker);
  /// Fires every timer due at or before `limit`, in (instant, schedule
  /// order); on the virtual clock the clock first reads each one's instant.
  void fire_due(Worker& worker, TimeMs limit);
  /// Steps `event` (its timer was due at `due`), then every same-instant
  /// arrival it queued on this worker.
  void run(Worker& worker, Event event, TimeMs due);
  void drain_local(Worker& worker);
  bool has_pending(Worker& worker);
  void park(Worker& worker);
  void wake(Worker& worker);
  bool remote(BrokerId broker) const;
  /// Hands an arrival to its broker's worker: this worker's FIFO, the
  /// owner's mailbox, or worker 0's trunk when the broker is remote.
  void route(Worker& from, Event arrival);
  /// Counts `copies` lost and releases their outstanding increments.
  void settle_loss(std::size_t copies);

  BrokerStep* step_;
  ReactorOptions options_;
  LiveClock* clock_;
  LiveStats* stats_;
  std::atomic<std::size_t>* outstanding_;

  /// greedy_edge_cut assignment: which worker owns each broker (and its
  /// links).
  std::vector<std::uint32_t> owner_of_broker_;
  /// Clock reading of each broker's last crash (-inf before any), written
  /// and read only by the broker's worker: the live cut tests.
  std::vector<TimeMs> crashed_at_;
  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<bool> stopping_{false};
  bool started_ = false;
};

}  // namespace bdps
