#include "runtime/reactor.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "broker/output_queue.h"
#include "common/spsc_queue.h"
#include "common/timer_wheel.h"
#include "net/endpoint.h"
#include "net/poller.h"
#include "runtime/channel.h"
#include "runtime/timer_slack.h"
#include "scheduling/kernel.h"
#include "sim/parallel/shard_plan.h"

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

/// One message crossing a worker boundary (mailbox / injector element).
struct Reactor::Inbound {
  BrokerId to = kNoBroker;
  std::shared_ptr<const Message> message;
};

/// Timer-wheel payload: which state machine fires.
struct Reactor::TimerEvent {
  std::uint32_t index = 0;  // BrokerId (rx) or links_ index (tx).
  bool tx = false;
};

/// Broker Rx state machine + per-broker scratch.  Touched only by the
/// owning worker, so none of it is synchronised.
struct Reactor::BrokerState {
  std::deque<std::shared_ptr<const Message>> input;
  bool processing = false;  // A PD timer is pending for input.front().
  /// The pending PD timer, so a crash can cancel it with the queue.
  TimerWheel<TimerEvent>::TimerId rx_timer;
  /// Crashed: queues were wiped, arrivals are lost until restart.
  bool down = false;
  FanOutGrouper grouper;
  std::vector<const SubscriptionEntry*> matched;
  // Running totals behind the eq. (6) average message size; worker-local
  // because every outgoing link of this broker lives on the same worker.
  double size_kb_total = 0.0;
  std::size_t size_count = 0;
};

/// Link Tx state machine: the simulator's OutputQueue engine driven by
/// timer callbacks instead of a dedicated sender thread.
struct Reactor::LinkState {
  BrokerId from;
  BrokerId to;
  EdgeId edge;
  LinkModel true_link;
  Rng rng;  // The link's per-EdgeId stream.
  OutputQueue out;
  /// The full queued record rides along during transmission so a link-down
  /// can cancel the timer and put the copy *back* (targets and folded
  /// scores intact) instead of losing it.
  QueuedMessage in_flight;
  TimerWheel<TimerEvent>::TimerId tx_timer;
  bool busy = false;  // A tx timer is pending for in_flight.
  /// Fault churn: while down the queue holds (no picks, no new timer);
  /// link-up re-arms.  Flipped only on the owning worker.
  bool down = false;

  LinkState(const LiveLinkSpec& spec, const Strategy* strategy)
      : from(spec.from),
        to(spec.to),
        edge(spec.edge),
        true_link(spec.params),
        rng(spec.rng),
        out(spec.to, spec.edge, spec.params, strategy) {}
};

struct Reactor::Worker {
  std::size_t id = 0;
  TimerWheel<TimerEvent> wheel;
  /// One SPSC mailbox per *source* worker (nullptr for self): exactly one
  /// pusher, exactly one drainer — the wait-free cross-worker path.
  std::vector<std::unique_ptr<SpscQueue<Inbound>>> inbound;
  /// External entry point (publish arrives from arbitrary user threads).
  Channel<Inbound> injector;
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
  std::vector<Inbound> drain_scratch;
  /// Worker-owned matching scratch: with the sharded engine, every worker
  /// matches lock-free against any broker it owns through one epoch slot
  /// (instead of one slot per broker).
  matching::MatchScratch match_scratch;
};

Reactor::Reactor(const Topology* topology, const RoutingFabric* fabric,
                 const Strategy* strategy, ReactorOptions options,
                 LiveClock* clock, LiveStats* stats,
                 std::atomic<std::size_t>* outstanding,
                 std::vector<LiveLinkSpec> links,
                 const std::vector<std::vector<LinkRef>>* out_links)
    : topology_(topology),
      fabric_(fabric),
      strategy_(strategy),
      options_(options),
      clock_(clock),
      stats_(stats),
      outstanding_(outstanding) {
  if (!(options_.wheel_tick_ms > 0.0)) {  // Also rejects NaN.
    throw std::invalid_argument("reactor: wheel_tick_ms must be > 0");
  }
  const std::size_t n = topology_->graph.broker_count();
  brokers_.reserve(n);
  for (std::size_t b = 0; b < n; ++b) {
    brokers_.push_back(std::make_unique<BrokerState>());
    brokers_[b]->grouper.bind((*out_links)[b]);
  }

  link_by_edge_.assign(topology_->graph.edge_count(), -1);
  links_of_broker_.resize(n);
  links_.reserve(links.size());
  for (LiveLinkSpec& spec : links) {
    link_by_edge_[spec.edge] = static_cast<std::int32_t>(links_.size());
    links_of_broker_[spec.from].push_back(
        static_cast<std::uint32_t>(links_.size()));
    links_.push_back(std::make_unique<LinkState>(spec, strategy_));
  }

  std::size_t worker_count =
      options_.workers != 0
          ? options_.workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  worker_count = std::clamp<std::size_t>(worker_count, 1, std::max<std::size_t>(1, n));

  // The sharded engine's partitioner keeps most fan-outs worker-local;
  // links follow their source broker, so one edge cut is one mailbox hop.
  const ShardPlan plan =
      ShardPlan::greedy_edge_cut(topology_->graph, worker_count);
  owner_of_broker_.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    owner_of_broker_[b] = plan.shard_of(static_cast<BrokerId>(b));
  }

  workers_.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->id = w;
    worker->inbound.resize(worker_count);
    for (std::size_t src = 0; src < worker_count; ++src) {
      if (src != w) worker->inbound[src] = std::make_unique<SpscQueue<Inbound>>();
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
  if (!worker.injector.push(Inbound{target, std::move(message)})) {
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

void Reactor::set_link_state(EdgeId edge, bool up) {
  if (static_cast<std::size_t>(edge) >= link_by_edge_.size()) return;
  const std::int32_t index = link_by_edge_[edge];
  if (index < 0) return;  // No subscription routes over this link.
  push_command(*workers_[owner_of_broker_[links_[index]->from]],
               Command{Command::Kind::kLink, static_cast<std::uint32_t>(index),
                       up});
}

void Reactor::set_broker_state(BrokerId broker, bool up) {
  if (static_cast<std::size_t>(broker) >= brokers_.size()) return;
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
  route(*workers_[0], target, std::move(message));
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
    if (command.kind == Command::Kind::kBroker) {
      apply_broker_command(worker, static_cast<BrokerId>(command.index),
                           command.up);
      continue;
    }
    if (command.kind == Command::Kind::kDropTrunk) {
      options_.endpoint->drop_peer(static_cast<int>(command.index));
      continue;
    }
    LinkState& link = *links_[command.index];
    if (!command.up) {
      link.down = true;
      if (link.busy) {
        // Tear down the Tx machine: the wheel timer is cancelled and the
        // copy goes back into the queue with its targets and folded
        // scores — it competes again at the next link-free pick.
        worker.wheel.cancel(link.tx_timer);
        link.busy = false;
        link.out.enqueue(std::move(link.in_flight));
        link.in_flight = QueuedMessage{};
      }
    } else {
      link.down = false;
      if (!link.busy && !link.out.empty()) {
        start_transmission(worker, command.index);
      }
    }
  }
}

void Reactor::apply_broker_command(Worker& worker, BrokerId broker, bool up) {
  BrokerState& state = *brokers_[broker];
  if (up) {
    state.down = false;  // Queues are empty; nothing to restart.
    return;
  }
  if (state.down) return;
  state.down = true;
  // The simulator's crash semantics: every copy the broker holds — queued
  // input, the message being processed, every outgoing OutputQueue and any
  // transmission already on the wire — dies with it.
  std::size_t lost = state.input.size();
  state.input.clear();
  if (state.processing) {
    worker.wheel.cancel(state.rx_timer);
    state.processing = false;
  }
  for (const std::uint32_t link_index : links_of_broker_[broker]) {
    LinkState& link = *links_[link_index];
    if (link.busy) {
      worker.wheel.cancel(link.tx_timer);
      link.busy = false;
      link.in_flight = QueuedMessage{};
      ++lost;
    }
    lost += link.out.clear();
  }
  if (lost > 0) {
    stats_->on_loss(lost);
    outstanding_->fetch_sub(lost, std::memory_order_release);
  }
}

std::uint64_t Reactor::tick_ceil(TimeMs at) const {
  if (at <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::ceil(at / options_.wheel_tick_ms));
}

void Reactor::worker_loop(Worker& worker) {
  worker.timer_slack_ns.store(timer_slack_ns(), std::memory_order_relaxed);
  NetEndpoint* const io = worker.id == 0 ? options_.endpoint : nullptr;
  for (;;) {
    apply_commands(worker);
    drain_inbound(worker);
    advance_wheel(worker);
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (io != nullptr) {
      if (stopping) {
        // The transport stops first: copies the peers never acked are
        // settled as losses so outstanding can reach zero; forwards after
        // this point are refused and settled in arrive().  Idempotent.
        const std::uint64_t unacked = io->stop();
        if (unacked > 0) {
          stats_->on_loss(unacked);
          outstanding_->fetch_sub(unacked, std::memory_order_release);
        }
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

void Reactor::drain_inbound(Worker& worker) {
  auto& batch = worker.drain_scratch;
  batch.clear();
  for (auto& mailbox : worker.inbound) {
    if (mailbox) mailbox->drain(batch);
  }
  // try_drain reuses the scratch vector: the empty-injector poll (the
  // common case every loop iteration) costs one lock, no allocation.
  worker.injector.try_drain(batch);
  for (Inbound& in : batch) {
    arrive(worker, in.to, std::move(in.message));
  }
  batch.clear();
}

void Reactor::advance_wheel(Worker& worker) {
  const std::uint64_t now_tick = static_cast<std::uint64_t>(
      std::max(0.0, clock_->now()) / options_.wheel_tick_ms);
  worker.wheel.advance(now_tick,
                       [this, &worker](std::uint64_t, TimerEvent event) {
                         if (event.tx) {
                           on_tx_done(worker, event.index);
                         } else {
                           on_rx_done(worker,
                                      static_cast<BrokerId>(event.index));
                         }
                       });
}

bool Reactor::has_pending(Worker& worker) {
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
  if (const auto next = worker.wheel.next_due()) {
    deadline = std::min(
        deadline, clock_->real_time_at(static_cast<TimeMs>(*next) *
                                       options_.wheel_tick_ms));
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

void Reactor::route(Worker& from, BrokerId to,
                    std::shared_ptr<const Message> message) {
  // Copies leaving the shard all go through worker 0, the endpoint's
  // only caller.
  const std::uint32_t owner = remote(to) ? 0 : owner_of_broker_[to];
  if (owner == from.id) {
    arrive(from, to, std::move(message));
    return;
  }
  Worker& target = *workers_[owner];
  target.inbound[from.id]->push(Inbound{to, std::move(message)});
  wake(target);
}

void Reactor::arrive(Worker& worker, BrokerId to,
                     std::shared_ptr<const Message> message) {
  if (!remote(to)) {
    deposit(worker, to, std::move(message));
    return;
  }
  // The downstream broker lives in another process.  A true return
  // transfers the copy's outstanding increment to the transport (held
  // until the peer's cumulative ack); false means the transport is
  // stopped and the copy dies here.
  const int peer = static_cast<int>((*options_.broker_shard)[to]);
  if (options_.endpoint == nullptr ||
      !options_.endpoint->forward_remote(peer, to, std::move(message))) {
    stats_->on_loss(1);
    outstanding_->fetch_sub(1, std::memory_order_release);
  }
}

void Reactor::deposit(Worker& worker, BrokerId broker,
                      std::shared_ptr<const Message> message) {
  BrokerState& state = *brokers_[broker];
  if (state.down) {  // Arrival at a crashed broker: the copy is lost.
    stats_->on_loss(1);
    outstanding_->fetch_sub(1, std::memory_order_release);
    return;
  }
  state.input.push_back(std::move(message));
  if (!state.processing) {
    state.processing = true;
    schedule_rx(worker, broker);
  }
}

void Reactor::schedule_rx(Worker& worker, BrokerId broker) {
  brokers_[broker]->rx_timer = worker.wheel.schedule(
      tick_ceil(clock_->now() + options_.processing_delay),
      TimerEvent{static_cast<std::uint32_t>(broker), /*tx=*/false});
}

void Reactor::on_rx_done(Worker& worker, BrokerId broker) {
  BrokerState& state = *brokers_[broker];
  std::shared_ptr<const Message> message = std::move(state.input.front());
  state.input.pop_front();

  stats_->on_reception();
  const TimeMs now = clock_->now();
  state.size_kb_total += message->size_kb();
  ++state.size_count;

  // Same admission pipeline as the legacy receiver and the simulator
  // broker: match scratch + sorted-slot fan-out grouping, kernel rows
  // folded here so pick/purge callbacks never touch the table.
  fabric_->match_at(broker, *message, worker.match_scratch, state.matched);
  state.grouper.group(state.matched, *message);

  for (const SubscriptionEntry* entry : state.grouper.local()) {
    const TimeMs delay = message->elapsed(now);
    const TimeMs deadline = entry->effective_deadline(*message);
    stats_->on_delivery(LiveDelivery{entry->subscription->subscriber,
                                     message->id(), delay, delay <= deadline,
                                     entry->subscription->price});
  }

  for (FanOutGroup& group : state.grouper.groups()) {
    if (group.targets.empty()) continue;
    const std::int32_t link_index = link_by_edge_[group.edge];
    LinkState& link = *links_[link_index];
    QueuedMessage queued{message, now, std::move(group.targets)};
    group.targets = {};  // Moved-from: reset to a clean empty slot.
    precompute_scores(queued, options_.processing_delay);
    outstanding_->fetch_add(1);
    link.out.enqueue(std::move(queued));
    if (!link.busy) {
      start_transmission(worker, static_cast<std::uint32_t>(link_index));
    }
  }

  outstanding_->fetch_sub(1, std::memory_order_release);

  if (!state.input.empty()) {
    schedule_rx(worker, broker);
  } else {
    state.processing = false;
  }
}

void Reactor::start_transmission(Worker& worker, std::uint32_t link_index) {
  LinkState& link = *links_[link_index];
  if (link.down) {  // Held: the queue keeps its copies until link-up.
    link.busy = false;
    return;
  }
  const BrokerState& from = *brokers_[link.from];
  const double average_kb =
      from.size_count == 0
          ? 0.0
          : from.size_kb_total / static_cast<double>(from.size_count);
  const SchedulingContext context{clock_->now(), options_.processing_delay,
                                  link.out.head_of_line_estimate(average_kb)};

  PurgeStats purge_stats;
  auto taken = link.out.take_next(context, options_.purge, &purge_stats);
  stats_->on_purge(purge_stats);
  if (purge_stats.expired + purge_stats.hopeless > 0) {
    outstanding_->fetch_sub(purge_stats.expired + purge_stats.hopeless,
                            std::memory_order_release);
  }
  if (!taken.has_value()) {
    link.busy = false;
    return;
  }

  link.busy = true;
  const TimeMs duration = link.true_link.sample_send_time(
      link.rng, taken->message->size_kb());
  link.in_flight = std::move(*taken);
  link.tx_timer =
      worker.wheel.schedule(tick_ceil(clock_->now() + duration),
                            TimerEvent{link_index, /*tx=*/true});
}

void Reactor::on_tx_done(Worker& worker, std::uint32_t link_index) {
  LinkState& link = *links_[link_index];
  std::shared_ptr<const Message> message = std::move(link.in_flight.message);
  link.in_flight = QueuedMessage{};

  route(worker, link.to, std::move(message));

  // The link is free at this instant: pop the next pick inline (or go
  // idle) — the event-driven equivalent of the sender loop's next
  // iteration.
  start_transmission(worker, link_index);
}

}  // namespace bdps
