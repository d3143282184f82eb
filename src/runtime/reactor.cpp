#include "runtime/reactor.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/spsc_queue.h"
#include "net/endpoint.h"
#include "net/poller.h"
#include "runtime/channel.h"
#include "runtime/timer_slack.h"
#include "topology/shard_plan.h"

namespace bdps {

namespace {

/// Park caps: a worker never sleeps past these even without a wake, so a
/// missed edge case degrades to a poll instead of a hang; the stop cap
/// keeps shutdown prompt while outstanding work drains.
constexpr std::chrono::milliseconds kMaxPark{50};
constexpr std::chrono::milliseconds kStopPark{2};

/// The doorbell's poller key (the endpoint leaves this key to its owner).
constexpr std::uint64_t kWakeKey = NetEndpoint::kOwnerKey;

}  // namespace

struct Reactor::Worker {
  std::size_t id = 0;
  /// Pending PD expiries and send completions, popped in (instant,
  /// schedule order) on either clock — Simulator's event queue.
  EventQueue timers;
  /// Same-instant arrivals at this worker's brokers, run after the step
  /// that produced them.
  std::deque<Event> local;
  /// One SPSC mailbox per *source* worker (nullptr for self): exactly one
  /// pusher, exactly one drainer — the wait-free cross-worker path.
  std::vector<std::unique_ptr<SpscQueue<Event>>> inbound;
  /// External entry point (publish arrives from arbitrary user threads).
  Channel<Event> injector;
  /// Link, broker and trunk transitions from set_link_state /
  /// set_broker_state / drop_trunk (arbitrary threads); applied by the
  /// owning worker between drains.  Low traffic, so a plain mutex-guarded
  /// vector suffices.
  std::mutex command_mutex;
  std::vector<Command> commands;
  /// Park (see the header): the worker waits on `poller` — its own, or the
  /// endpoint's for worker 0 in socket mode — with `wake` registered under
  /// kWakeKey.  `parked` is raised before the final re-check and tells
  /// producers whether a push needs the doorbell.
  std::unique_ptr<Poller> own_poller;
  Poller* poller = nullptr;
  WakeFd wake;
  std::atomic<bool> parked{false};
  std::vector<Poller::Event> events;
  std::thread thread;
  /// The slack this worker read of itself on entry (-1 before it ran).
  std::atomic<long> timer_slack_ns{-1};
  std::vector<Event> drain_scratch;
  StepScratch step_scratch;
};

/// The live Effects of BrokerStep: children become worker timers, worker
/// FIFO entries, mailbox or trunk handoffs; accounting goes to LiveStats
/// and the outstanding-copies counter.  Eq. (1)/(2) bookkeeping and traces
/// are not kept live; the publish step only stamps the message, on the
/// worker that owns its edge broker.
struct Reactor::Effects {
  Reactor* reactor;
  Worker* worker;
  /// How late the event being stepped fired after its model instant (0
  /// for arrivals and on the virtual clock): processing_cut shifts its
  /// window back to the instant processing started.
  TimeMs lateness = 0.0;

  bool tracing() const { return false; }
  void trace(const TraceEvent&) {}
  void publish(std::size_t, double) {}
  void reception() { reactor->stats_->on_reception(); }
  void delivery(SubscriberId subscriber, MessageId message, TimeMs delay,
                TimeMs deadline, double price) {
    reactor->stats_->on_delivery(
        LiveDelivery{subscriber, message, delay, delay <= deadline, price});
  }
  void fan_out(std::size_t copies) {
    // The copies count before the processed message stops counting, so the
    // counter never passes through zero while they live.
    if (copies > 0) reactor->outstanding_->fetch_add(copies);
    reactor->outstanding_->fetch_sub(1, std::memory_order_release);
  }
  void purge(const PurgeStats& stats) {
    const std::size_t purged = stats.expired + stats.hopeless;
    if (purged == 0) return;
    reactor->stats_->on_purge(stats);
    reactor->outstanding_->fetch_sub(purged, std::memory_order_release);
  }
  void loss(std::size_t copies) { reactor->settle_loss(copies); }
  void input_depth(std::size_t) {}
  void fault_batch(std::size_t) {}

  std::pair<std::size_t, double> interest(const Event& publish) {
    reactor->step_->fabric->stamp(*publish.message,
                                  worker->step_scratch.match);
    return {0, 0.0};
  }
  void push(Event child) {
    if (child.type == EventType::kArrival) {
      reactor->route(*worker, std::move(child));
    } else {
      worker->timers.push(std::move(child));
    }
  }
  double draw_rate(EdgeId edge) { return reactor->step_->draw_rate(edge); }
  bool send_cut(EdgeId edge, TimeMs start, TimeMs) const {
    const BrokerId sender = reactor->step_->topology->graph.edge(edge).from;
    return reactor->crashed_at_[sender] > start;
  }
  bool processing_cut(BrokerId broker, TimeMs from, TimeMs) const {
    return reactor->crashed_at_[broker] > from - lateness;
  }
  StepScratch& scratch() { return worker->step_scratch; }
};

Reactor::Reactor(BrokerStep* step, ReactorOptions options, LiveClock* clock,
                 LiveStats* stats, std::atomic<std::size_t>* outstanding)
    : step_(step),
      options_(options),
      clock_(clock),
      stats_(stats),
      outstanding_(outstanding) {
  const Graph& graph = step_->topology->graph;
  const std::size_t n = graph.broker_count();
  crashed_at_.assign(n, -kNoDeadline);

  std::size_t worker_count =
      options_.workers != 0
          ? options_.workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  worker_count = std::clamp<std::size_t>(worker_count, 1, std::max<std::size_t>(1, n));

  // The greedy edge cut keeps most fan-outs worker-local; links follow
  // their source broker, so one edge cut is one mailbox hop.
  owner_of_broker_ = greedy_edge_cut(graph, worker_count);

  workers_.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->id = w;
    worker->inbound.resize(worker_count);
    for (std::size_t src = 0; src < worker_count; ++src) {
      if (src != w) worker->inbound[src] = std::make_unique<SpscQueue<Event>>();
    }
    if (w == 0 && options_.endpoint != nullptr) {
      worker->poller = &options_.endpoint->poller();
    } else {
      worker->own_poller = std::make_unique<Poller>();
      worker->poller = worker->own_poller.get();
    }
    worker->poller->add(worker->wake.fd(), kWakeKey, true, false);
    workers_.push_back(std::move(worker));
  }
}

Reactor::~Reactor() { stop(); }

void Reactor::start() {
  if (started_) return;
  started_ = true;
  // Every park of a worker waits for a PD or send timer's model instant;
  // the workers take this thread's slack while it is 1 ns.
  const ScopedTimerSlack exact;
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { worker_loop(*w); });
    const std::string name =
        std::string(kWorkerThreadPrefix) + std::to_string(w->id);
    pthread_setname_np(w->thread.native_handle(), name.c_str());
  }
}

std::vector<long> Reactor::worker_timer_slacks() const {
  std::vector<long> slacks;
  for (const auto& worker : workers_) {
    slacks.push_back(worker->timer_slack_ns.load(std::memory_order_relaxed));
  }
  return slacks;
}

bool Reactor::publish(BrokerId target,
                      std::shared_ptr<const Message> message) {
  Worker& worker = *workers_[owner_of_broker_[target]];
  if (!worker.injector.push(make_event(0.0, EventType::kPublish, target,
                                       std::move(message)))) {
    return false;
  }
  wake(worker);
  return true;
}

void Reactor::stop() {
  if (stopping_.exchange(true)) {
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    return;
  }
  for (auto& worker : workers_) worker->injector.close();
  for (auto& worker : workers_) wake(*worker);
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void Reactor::check_invariants() const {
  const auto fail = [](const char* what) {
    throw std::logic_error(std::string("Reactor: ") + what);
  };
  for (const auto& worker : workers_) {
    if (!worker->timers.empty()) fail("a timer is pending at quiescence");
    if (!worker->local.empty()) fail("a local FIFO holds arrivals");
    for (const auto& mailbox : worker->inbound) {
      if (mailbox && !mailbox->empty()) fail("a mailbox holds arrivals");
    }
  }
}

void Reactor::set_link_state(EdgeId edge, bool up) {
  const Graph& graph = step_->topology->graph;
  if (edge < 0 || static_cast<std::size_t>(edge) >= graph.edge_count()) {
    return;
  }
  push_command(*workers_[owner_of_broker_[graph.edge(edge).from]],
               Command{Command::Kind::kLink, static_cast<std::uint32_t>(edge),
                       up});
}

void Reactor::set_broker_state(BrokerId broker, bool up) {
  if (broker < 0 ||
      static_cast<std::size_t>(broker) >= owner_of_broker_.size()) {
    return;
  }
  push_command(*workers_[owner_of_broker_[broker]],
               Command{Command::Kind::kBroker,
                       static_cast<std::uint32_t>(broker), up});
}

void Reactor::drop_trunk(int peer) {
  if (options_.endpoint == nullptr) return;
  push_command(*workers_[0], Command{Command::Kind::kDropTrunk,
                                     static_cast<std::uint32_t>(peer), false});
}

void Reactor::deposit_trunk(BrokerId target,
                            std::shared_ptr<const Message> message) {
  route(*workers_[0], make_event(clock_->now(), EventType::kArrival, target,
                                 std::move(message)));
}

void Reactor::push_command(Worker& worker, Command command) {
  {
    const std::lock_guard<std::mutex> lock(worker.command_mutex);
    worker.commands.push_back(command);
  }
  wake(worker);
}

void Reactor::apply_commands(Worker& worker) {
  std::vector<Command> batch;
  {
    const std::lock_guard<std::mutex> lock(worker.command_mutex);
    if (worker.commands.empty()) return;
    batch.swap(worker.commands);
  }
  for (const Command& command : batch) {
    if (command.kind == Command::Kind::kDropTrunk) {
      options_.endpoint->drop_peer(static_cast<int>(command.index));
      continue;
    }
    // One-entry fault batch: link down holds, link up kicks its queue, a
    // crash wipes the broker's queues as losses, a restart brings it up.
    const TimeMs now = clock_->now();
    FaultBatch faults;
    faults.at = now;
    if (command.kind == Command::Kind::kLink) {
      (command.up ? faults.edges_up : faults.edges_down)
          .push_back(static_cast<EdgeId>(command.index));
    } else if (command.up) {
      faults.brokers_up.push_back(static_cast<BrokerId>(command.index));
    } else {
      faults.brokers_down.push_back(static_cast<BrokerId>(command.index));
      crashed_at_[command.index] = now;
    }
    Effects fx{this, &worker};
    step_->apply_faults(fx, faults, now);
  }
}

void Reactor::worker_loop(Worker& worker) {
  worker.timer_slack_ns.store(timer_slack_ns(), std::memory_order_relaxed);
  NetEndpoint* const io = worker.id == 0 ? options_.endpoint : nullptr;
  for (;;) {
    apply_commands(worker);
    drain_inbound(worker);
    fire_due(worker, clock_->now());
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (io != nullptr) {
      if (stopping) {
        // The transport stops first: copies the peers never acked are
        // settled as losses so outstanding can reach zero; forwards after
        // this point are refused and settled in route().  Idempotent.
        const std::uint64_t unacked = io->stop();
        if (unacked > 0) settle_loss(unacked);
      }
      io->service();
    }
    // Exit order matters: the injector must be observed *closed* before
    // outstanding is read.  A publish that won the push-before-close race
    // incremented the counter before pushing, and both precede the close
    // this thread just observed (channel-mutex order), so outstanding
    // reads >= 1 here and the next drain picks the message up — no copy
    // can strand in a dead worker's injector.  Cross-worker mailboxes
    // need no check: a future push implies an in-flight copy that keeps
    // outstanding nonzero the whole time.
    if (stopping && worker.injector.closed() &&
        outstanding_->load(std::memory_order_acquire) == 0) {
      return;
    }
    park(worker);
  }
}

void Reactor::run_until(TimeMs instant) {
  Worker& worker = *workers_.front();
  // Commands and publishes come from this thread between calls, and a step
  // only adds timers and same-worker arrivals: one drain covers the run.
  apply_commands(worker);
  drain_inbound(worker);
  fire_due(worker, instant);
  if (instant > clock_->now()) clock_->set_virtual(instant);
}

void Reactor::drain_inbound(Worker& worker) {
  drain_local(worker);  // Trunk copies taken in outside a step.
  auto& batch = worker.drain_scratch;
  batch.clear();
  for (auto& mailbox : worker.inbound) {
    if (mailbox) mailbox->drain(batch);
  }
  // try_drain reuses the scratch vector: the empty-injector poll (the
  // common case every loop iteration) costs one lock, no allocation.
  worker.injector.try_drain(batch);
  for (Event& event : batch) {
    if (remote(event.broker)) {  // Worker 0: a copy bound for the trunk.
      route(worker, std::move(event));
      continue;
    }
    // A handed-over copy arrives when its worker takes it in.
    const TimeMs now = clock_->now();
    event.time = now;
    run(worker, std::move(event), now);
  }
  batch.clear();
}

void Reactor::fire_due(Worker& worker, TimeMs limit) {
  while (!worker.timers.empty() && worker.timers.top().time <= limit) {
    Event event = worker.timers.pop();
    const TimeMs due = event.time;
    if (clock_->is_virtual()) clock_->set_virtual(due);
    event.time = clock_->now();  // The firing reading; lateness = now - due.
    run(worker, std::move(event), due);
  }
}

void Reactor::run(Worker& worker, Event event, TimeMs due) {
  Effects fx{this, &worker, event.time - due};
  step_->step(fx, event);
  drain_local(worker);
}

void Reactor::drain_local(Worker& worker) {
  Effects fx{this, &worker};
  while (!worker.local.empty()) {
    Event next = std::move(worker.local.front());
    worker.local.pop_front();
    step_->step(fx, next);
  }
}

bool Reactor::has_pending(Worker& worker) {
  if (!worker.local.empty()) return true;
  for (const auto& mailbox : worker.inbound) {
    if (mailbox && !mailbox->empty()) return true;
  }
  if (worker.injector.size() > 0) return true;
  const std::lock_guard<std::mutex> lock(worker.command_mutex);
  return !worker.commands.empty();
}

void Reactor::park(Worker& worker) {
  const bool stopping = stopping_.load(std::memory_order_acquire);
  const auto now = std::chrono::steady_clock::now();
  auto deadline = now + (stopping ? kStopPark : kMaxPark);
  if (!worker.timers.empty()) {
    deadline =
        std::min(deadline, clock_->real_time_at(worker.timers.top().time));
  }
  if (worker.id == 0 && options_.endpoint != nullptr) {
    if (const auto redial = options_.endpoint->next_deadline()) {
      deadline = std::min(deadline, *redial);
    }
  }
  auto timeout = std::max(std::chrono::nanoseconds{0},
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              deadline - now));
  if (timeout.count() > 0) {
    // Raise the flag, then re-check.  Every write to `parked` is an
    // acq_rel exchange, so each one synchronizes with the one before it:
    // a producer whose exchange came first made its push visible to this
    // re-check, and one that comes later reads `true` and rings.
    worker.parked.exchange(true, std::memory_order_acq_rel);
    if (has_pending(worker) ||
        stopping_.load(std::memory_order_acquire) != stopping) {
      timeout = std::chrono::nanoseconds{0};
    }
  }
  worker.poller->wait(timeout, worker.events);
  worker.parked.exchange(false, std::memory_order_acq_rel);
  for (const Poller::Event& event : worker.events) {
    if (event.key == kWakeKey) {
      worker.wake.drain();
    } else {
      options_.endpoint->handle(event);  // Only worker 0's poller has these.
    }
  }
}

void Reactor::wake(Worker& worker) {
  // The caller's push happens before this exchange (see park()); clearing
  // the flag lets exactly one producer ring a parked worker.
  if (worker.parked.exchange(false, std::memory_order_acq_rel)) {
    worker.wake.signal();
  }
}

bool Reactor::remote(BrokerId broker) const {
  return options_.broker_shard != nullptr &&
         (*options_.broker_shard)[broker] != options_.shard;
}

void Reactor::route(Worker& from, Event arrival) {
  const BrokerId to = arrival.broker;
  if (remote(to) && from.id == 0) {
    // The downstream broker lives in another process.  A true return
    // transfers the copy's outstanding increment to the transport (held
    // until the peer's cumulative ack); false means the transport is
    // stopped and the copy dies here.
    const int peer = static_cast<int>((*options_.broker_shard)[to]);
    if (options_.endpoint == nullptr ||
        !options_.endpoint->forward_remote(peer, to,
                                           std::move(arrival.message))) {
      settle_loss(1);
    }
    return;
  }
  // Copies leaving the shard all go through worker 0, the endpoint's
  // only caller.
  const std::uint32_t owner = remote(to) ? 0 : owner_of_broker_[to];
  if (owner == from.id) {
    from.local.push_back(std::move(arrival));
    return;
  }
  Worker& target = *workers_[owner];
  target.inbound[from.id]->push(std::move(arrival));
  wake(target);
}

void Reactor::settle_loss(std::size_t copies) {
  stats_->on_loss(copies);
  outstanding_->fetch_sub(copies, std::memory_order_release);
}

}  // namespace bdps
