// One broker step: the event semantics every engine shares.
//
// The paper's results come from one per-broker rule: at each link-free
// instant a broker purges hopeless copies (eq. 11), then picks one with
// EB/PC/EBPC (eqs. 3-10).  That rule, and the fault, cut and hold rules
// around it, are written here exactly once.  BrokerStep owns the overlay
// state the engines run on (brokers, the slot -> true-edge table, the
// per-edge RNG streams, the online estimators, the dedup sets, the input
// queues and the fault state) and applies one event at a time through
// `step`.  Link faults of both kinds, outages and terminal kills, reach it
// as fault batches (sim/faults/timeline.h).  The three drivers only decide
// the *order* of events:
//
//   * Simulator pops one global (time, sequence) heap;
//   * ParallelSimulator pops per-shard lanes inside conservative windows
//     and merges the shards' logs back into the global order at barriers;
//   * the live Reactor (runtime/reactor.h) pops a per-worker heap of the
//     same order on the scaled clock, each broker on the worker that owns
//     it, and turns live link/broker commands into one-entry batches.
//
// Everything a step does beyond mutating this state goes through an
// Effects policy, a compile-time template parameter (no virtual call and
// no std::function on the hot path).  An Effects type provides what the
// rules it runs call (`apply_faults` alone needs neither `interest`,
// `claim_deposit` nor the cut tests):
//
//   using Event = ...;  // Event (Simulator, Reactor) or LaneEvent (lanes).
//   // Collector and trace side effects: applied at once (DirectRecord),
//   // logged by a shard worker for the barrier replay, or counted live.
//   bool tracing() const;
//   void trace(const TraceEvent&);
//   void publish(std::size_t interested, double potential);
//   void reception();
//   void delivery(SubscriberId subscriber, MessageId message, TimeMs delay,
//                 TimeMs deadline, double price);
//   void fan_out(std::size_t copies);  // A processed message became
//                                      // `copies` queued copies.
//   void purge(const PurgeStats&);
//   void loss(std::size_t copies);
//   void input_depth(std::size_t depth);
//   void fault_batch(std::size_t repaired_rows);
//   // Ordering and transport:
//   // Eq. (1)/(2) inputs of a publish.  The message enters the overlay
//   // here, so an engine that has not stamped it yet stamps it now
//   // (RoutingFabric::stamp) and every broker reads that stamp.
//   std::pair<std::size_t, double> interest(const Event& publish);
//   void push(Event child);           // A child of the event being handled.
//   double draw_rate(EdgeId edge);    // ms/KB of the edge's next send.
//   void send(Event completion, EdgeId edge, TimeMs start);
//   bool claim_deposit(Event& completion);  // Arrival shipped at start?
//   StepScratch& scratch();
//   // Fault cuts, asked only while fault state is allocated (has_faults):
//   // is the copy on the wire over (start, end] lost, and is the message
//   // in processing over (from, to] lost?  The simulators answer from the
//   // compiled plan (lost_in_flight / lost_in_processing).  Live answers
//   // with one rule: a link-down never cuts (the frame completes and the
//   // queue holds), a crash of the sending or processing broker does.
//   bool send_cut(EdgeId edge, TimeMs start, TimeMs end);
//   bool processing_cut(BrokerId broker, TimeMs from, TimeMs to);
//
// Stream discipline: the k-th send on a true edge consumes the k-th sample
// of that edge's RNG stream however sends on other links interleave, so an
// engine may draw lazily (Simulator, Reactor) or one send ahead (the
// sharded engine's lookahead) and still compute the same durations bit
// for bit.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "common/flat_set.h"
#include "common/random.h"
#include "sim/collector.h"
#include "sim/event_queue.h"
#include "sim/faults/timeline.h"
#include "stats/rate_estimator.h"
#include "topology/edge_map.h"
#include "trace/trace.h"

namespace bdps {

/// Options of one run; every engine takes the same struct.
struct SimulatorOptions {
  /// Per-broker processing delay PD (§3.2; paper default 2 ms).
  TimeMs processing_delay = 2.0;
  /// Invalid-message purge policy (§5.4).
  PurgePolicy purge;
  /// Hard stop; events beyond this instant are not processed.  Guards
  /// against pathological configurations — normal runs drain naturally.
  TimeMs horizon = kNoDeadline;
  /// §3.2's measurement loop, made explicit: when true, every completed
  /// send feeds a per-link RateEstimator (Welford over ms/KB) and the
  /// queue's believed parameters — the basis of FT and of eq. (5) at *this*
  /// hop via the context — track the estimate instead of staying at their
  /// initial values.  Lets brokers recover from wrong initial beliefs.
  bool online_estimation = false;
  /// Samples before an estimate fully replaces the initial belief.
  std::size_t estimator_min_samples = 8;
  /// Drop duplicate arrivals of the same message at a broker (after
  /// counting the reception).  Required under multi-path routing, where a
  /// broker can legitimately receive a message over several links; harmless
  /// (and a no-op) under single-path routing.
  bool dedup_arrivals = false;
  /// Compiled fault timeline (sim/faults/): link/broker down→up windows and
  /// terminal link kills, applied as atomic batches at their instants.  A
  /// down link *holds* its queued copies until recovery (deadline pressure
  /// applies at the next pick); a killed link drops them as losses, loses
  /// its in-flight copy and never recovers (routing is not repaired around
  /// it — multi-path redundancy is the only way past).  A crashed broker
  /// drops its queues and loses in-progress work, and restarts empty.
  /// Shared by both engines so a run replays bitwise at any shard count.
  /// nullptr/empty = no faults.
  std::shared_ptr<const CompiledFaults> faults;
  /// When set, fault batches additionally repair this fabric's routing
  /// state incrementally (affected-subtree SPT recompute) as links go down
  /// and come back — brokers then forward along the repaired trees instead
  /// of holding copies toward dead links forever.  The fabric must be the
  /// one the brokers route with, built with repair enabled, and outlive
  /// the simulator.
  RoutingFabric* repair_fabric = nullptr;
  /// Serialize the processing stage: a broker processes one message at a
  /// time (each takes PD), arrivals wait in the fig. 2 *input queue*.  The
  /// paper ignores the input queue (footnote 2: processing outruns the
  /// network); turning this on lets that claim be checked rather than
  /// assumed — see SimResult::max_input_queue.
  bool serialize_processing = false;
  /// Event-lane count for the sharded engine (sim/parallel/).  0 (default)
  /// selects the sequential engine; >= 1 makes experiment/runner drive the
  /// run through ParallelSimulator with this many shards (clamped to the
  /// broker count).  Collector output is bitwise identical either way.
  std::size_t shards = 0;
};

/// Per-thread scratch reused across steps: the live (sendable) subset of a
/// fan-out, the per-queue take_next results, and the thread's match
/// scratch (one per thread, whatever broker it processes): the publish
/// step stamps messages through it, and a broker matches an unstamped
/// message into it (RoutingFabric::stamp, match_for).
struct StepScratch {
  std::vector<Broker::QueueSlot> live_slots;
  std::vector<Broker::Dispatch> dispatch;
  SubscriptionIndex::Scratch match;
};

/// Record half of an Effects policy that applies every side effect at
/// once: Simulator, and the parallel coordinator at window barriers (where
/// every earlier event has already merged).
struct DirectRecord {
  Collector* collector = nullptr;
  TraceSink* sink = nullptr;

  bool tracing() const { return sink != nullptr; }
  void trace(const TraceEvent& event) { sink->record(event); }
  void publish(std::size_t interested, double potential) {
    collector->on_publish(interested, potential);
  }
  void reception() { collector->on_reception(); }
  void delivery(SubscriberId, MessageId, TimeMs delay, TimeMs deadline,
                double price) {
    collector->on_delivery(delay, deadline, price);
  }
  void fan_out(std::size_t) {}
  void purge(const PurgeStats& stats) { collector->on_purge(stats); }
  void loss(std::size_t copies) { collector->on_loss(copies); }
  void input_depth(std::size_t depth) {
    collector->on_input_queue_depth(depth);
  }
  void fault_batch(std::size_t repaired_rows) {
    collector->on_fault_batch(repaired_rows);
  }
};

/// Rng padded to its own cache line: in the sharded engine the streams of
/// neighbouring edge ids are drawn by different threads.
struct alignas(64) PaddedRng {
  Rng rng{0};
};

class BrokerStep {
 public:
  /// Builds the shared overlay state; see Simulator's constructor for the
  /// pointer contracts.  Throws std::logic_error when a believed link has
  /// no true counterpart.
  BrokerStep(const Topology* topology, const Graph* believed,
             const RoutingFabric* fabric, const Strategy* strategy,
             SimulatorOptions options, Rng link_rng);

  /// Applies one event.  kFault applies batch `event.broker` of the plan.
  template <class Fx>
  void step(Fx& fx, typename Fx::Event& event);

  /// Applies one compiled fault batch in the canonical order: broker
  /// crashes (input and output queues lost), edge downs (hold semantics),
  /// recoveries, incremental routing repair, kills (queues lost), then a
  /// send kick on every recovered edge whose queue held copies, in edge-id
  /// order.
  template <class Fx>
  void apply_faults(Fx& fx, const FaultBatch& batch, TimeMs now);

  /// Eq. (1)/(2) inputs of a publication: subscribers interested
  /// system-wide (and active at its publish time), and their summed price,
  /// read off the message's stamp (RoutingFabric::matched; an unstamped
  /// message is matched into `scratch`).
  std::pair<std::size_t, double> interest(
      const Message& message, SubscriptionIndex::Scratch& scratch) const;

  /// The next sample of `edge`'s stream, drawn now (ms/KB).
  double draw_rate(EdgeId edge) {
    return topology->graph.edge(edge).link.sample_rate(
        link_rngs[static_cast<std::size_t>(edge)].rng);
  }

  /// True when a send on `edge` over (start, end] is cut by a fault
  /// down-transition of the plan (the copy is lost even if the link is
  /// back up).
  bool lost_in_flight(EdgeId edge, TimeMs start, TimeMs end) const {
    return has_faults && options.faults->edge_cut_between(edge, start, end);
  }

  /// True when the plan crashes `broker` in (from, to]: the message it was
  /// processing over that span is lost, even if the broker restarted.
  bool lost_in_processing(BrokerId broker, TimeMs from, TimeMs to) const {
    return has_faults && options.faults->broker_cut_between(broker, from, to);
  }

  /// Allocates the fault state (down/killed edges, crashed brokers, send
  /// start instants) and sets has_faults.  The constructor calls it for a
  /// non-empty plan; the live runtime always does, since its commands can
  /// take any link or broker down.
  void allocate_fault_state();

  /// Quiescence invariants of a run that drained on its own (not one cut
  /// off at a horizon): no link is busy, no broker is processing, every
  /// input queue is empty and every non-empty output queue sits on a down
  /// or killed edge.  Throws std::logic_error naming the first violation.
  void check_invariants() const;

  /// Online estimator of a true-graph link; nullptr when online estimation
  /// is off, the id is out of range, or the link never carried a send.
  const RateEstimator* estimator(EdgeId edge) const;

  // ---- Overlay state (read by the engines) ----
  const Topology* topology;
  /// The graph beliefs were built from; also the estimators' prior.
  const Graph* believed;
  const RoutingFabric* fabric;
  SimulatorOptions options;

  std::vector<Broker> brokers;
  /// true_edge_by_slot[broker][slot]: the true directed link behind that
  /// queue slot, resolved once so every per-link access is a flat load.
  std::vector<std::vector<EdgeId>> true_edge_by_slot;
  /// Stream e is the e-th split of the constructor's generator.
  std::vector<PaddedRng> link_rngs;
  /// Start of the in-flight send per edge (estimator samples and the
  /// (s, c] mid-flight cut test); sized only when one of them is on.
  EdgeMap<TimeMs> send_begin;
  EdgeMap<RateEstimator> estimators;
  /// Byte (not bit) liveness: bit flags would race across shards.
  EdgeMap<std::uint8_t> estimator_live;
  /// Already-processed message ids per broker (dedup_arrivals).
  std::vector<FlatIdSet> seen;
  /// Fig. 2 input queues and processing-unit busy flags
  /// (serialize_processing); uint8, not vector<bool>, for the same reason.
  std::vector<std::deque<std::shared_ptr<const Message>>> input_queues;
  std::vector<std::uint8_t> processing_busy;
  /// Fault state, allocated by allocate_fault_state (a non-empty plan, or
  /// the live runtime): down directed edges (hold their copies), killed
  /// ones (also down; drop their copies) and crashed brokers.  Only the
  /// batch step writes them.  Byte flags, not bits: live, the owners of
  /// two edges' source brokers may be different workers.
  bool has_faults = false;
  EdgeMap<std::uint8_t> down;
  EdgeMap<std::uint8_t> killed;
  std::vector<std::uint8_t> broker_down;

 private:
  /// The link-free instant at `broker` for `slots`: drains killed-link
  /// queues, holds down ones, and purges + picks + starts a send on each
  /// live one, in slot order.
  template <class Fx>
  void start_sends(Fx& fx, BrokerId broker,
                   std::span<const Broker::QueueSlot> slots, TimeMs now);

  template <class Fx, class Ev>
  void publish(Fx& fx, Ev& event);
  template <class Fx, class Ev>
  void arrival(Fx& fx, Ev& event);
  template <class Fx, class Ev>
  void processed(Fx& fx, Ev& event);
  template <class Fx, class Ev>
  void send_complete(Fx& fx, Ev& event);
  /// Drops every copy queued on the slot as a loss.
  template <class Fx>
  void drain_slot(Fx& fx, BrokerId broker, Broker::QueueSlot slot,
                  TimeMs now);

  template <class Fx>
  static void trace(Fx& fx, TimeMs now, TraceEventKind kind,
                    MessageId message, BrokerId broker,
                    BrokerId neighbor = kNoBroker,
                    SubscriberId subscriber = -1, bool valid = false) {
    if (!fx.tracing()) return;
    fx.trace(
        TraceEvent{now, kind, message, broker, neighbor, subscriber, valid});
  }
};

/// An event of either engine's type with the fields every rule sets.
template <class Ev>
Ev make_event(TimeMs time, EventType type, BrokerId broker,
              std::shared_ptr<const Message> message) {
  Ev event;
  event.time = time;
  event.type = type;
  event.broker = broker;
  event.message = std::move(message);
  return event;
}

// ---------------------------------------------------------------------------

template <class Fx>
void BrokerStep::step(Fx& fx, typename Fx::Event& event) {
  switch (event.type) {
    case EventType::kPublish:
      publish(fx, event);
      break;
    case EventType::kArrival:
      arrival(fx, event);
      break;
    case EventType::kProcessed:
      processed(fx, event);
      break;
    case EventType::kSendComplete:
      send_complete(fx, event);
      break;
    case EventType::kFault:
      apply_faults(fx, options.faults->batches()[static_cast<std::size_t>(
                           event.broker)],
                   event.time);
      break;
  }
}

template <class Fx, class Ev>
void BrokerStep::publish(Fx& fx, Ev& event) {
  const auto [interested, potential] = fx.interest(event);
  fx.publish(interested, potential);
  trace(fx, event.time, TraceEventKind::kPublish, event.message->id(),
        event.broker);
  // Injection into the edge broker is itself a reception: arrival now.
  fx.push(make_event<Ev>(event.time, EventType::kArrival, event.broker,
                         std::move(event.message)));
}

template <class Fx, class Ev>
void BrokerStep::arrival(Fx& fx, Ev& event) {
  const BrokerId b = event.broker;
  fx.reception();
  trace(fx, event.time, TraceEventKind::kArrival, event.message->id(), b);
  if (has_faults && broker_down[b] != 0) {
    // The copy reached a crashed broker: nothing is listening.
    fx.loss(1);
    trace(fx, event.time, TraceEventKind::kLoss, event.message->id(), b);
    return;
  }
  if (options.dedup_arrivals && !seen[b].insert(event.message->id())) {
    return;  // Duplicate copy over a redundant path; count it, drop it.
  }
  if (options.serialize_processing) {
    if (processing_busy[b] != 0) {
      // Fig. 2's input queue: wait for the processing unit.
      auto& pending = input_queues[b];
      pending.push_back(std::move(event.message));
      fx.input_depth(pending.size());
      return;
    }
    processing_busy[b] = 1;
  }
  fx.push(make_event<Ev>(event.time + options.processing_delay,
                         EventType::kProcessed, b, std::move(event.message)));
}

template <class Fx, class Ev>
void BrokerStep::processed(Fx& fx, Ev& event) {
  const TimeMs now = event.time;
  const BrokerId b = event.broker;
  const Message& message = *event.message;
  if (has_faults &&
      fx.processing_cut(b, now - options.processing_delay, now)) {
    // The broker crashed while this message was in its processing stage —
    // the in-progress work is gone even if the broker already restarted.
    // The crash also cleared the busy flag and the input queue, so the
    // serialize chain (if any) restarts with the next arrival.
    fx.loss(1);
    trace(fx, now, TraceEventKind::kLoss, message.id(), b);
    return;
  }
  Broker& broker = brokers[b];
  trace(fx, now, TraceEventKind::kProcessed, message.id(), b);
  const Broker::FanOut fanout =
      broker.process(event.message, now, fx.scratch().match);

  fx.fan_out(fanout.enqueued.size());
  for (const SubscriptionEntry* entry : fanout.local) {
    const TimeMs delay = message.elapsed(now);
    const TimeMs deadline = entry->effective_deadline(message);
    const SubscriberId subscriber = entry->subscription->subscriber;
    fx.delivery(subscriber, message.id(), delay, deadline,
                entry->subscription->price);
    trace(fx, now, TraceEventKind::kDeliver, message.id(), b, kNoBroker,
          subscriber, delay <= deadline);
  }
  if (fx.tracing()) {
    for (const Broker::QueueSlot slot : fanout.enqueued) {
      trace(fx, now, TraceEventKind::kEnqueue, message.id(), b,
            broker.queue_at(slot).neighbor());
    }
  }
  start_sends(fx, b, fanout.sendable, now);

  if (options.serialize_processing) {
    // The serialize chain: hand the processing unit to the next waiting
    // arrival, or free it.
    auto& pending = input_queues[b];
    if (pending.empty()) {
      processing_busy[b] = 0;
    } else {
      fx.push(make_event<Ev>(now + options.processing_delay,
                             EventType::kProcessed, b,
                             std::move(pending.front())));
      pending.pop_front();
    }
  }
}

template <class Fx>
void BrokerStep::start_sends(Fx& fx, BrokerId broker_id,
                             std::span<const Broker::QueueSlot> slots,
                             TimeMs now) {
  const std::vector<EdgeId>& true_edges = true_edge_by_slot[broker_id];
  StepScratch& scratch = fx.scratch();
  std::vector<Broker::QueueSlot>& live = scratch.live_slots;
  live.clear();
  if (!has_faults) {
    live.assign(slots.begin(), slots.end());
  } else {
    for (const Broker::QueueSlot slot : slots) {
      const EdgeId true_edge = true_edges[slot];
      if (killed[true_edge] != 0) {
        drain_slot(fx, broker_id, slot, now);
      } else if (down[true_edge] != 0) {
        // Fault-timeline outage: hold the copies; the recovery batch (or a
        // post-flap completion) kicks this queue again.
      } else {
        live.push_back(slot);
      }
    }
  }
  if (live.empty()) return;
  Broker& broker = brokers[broker_id];

  // Per-queue purge + pick, then accounting, rate draws and completion
  // pushes in slot order, keeping runs reproducible from the seed alone.
  broker.take_next(live, now, options.purge, scratch.dispatch, fx.tracing());
  for (Broker::Dispatch& dispatch : scratch.dispatch) {
    fx.purge(dispatch.purge);
    for (const MessageId id : dispatch.purged_ids) {
      trace(fx, now, TraceEventKind::kPurge, id, broker_id,
            dispatch.neighbor);
    }
    if (!dispatch.chosen.has_value()) continue;  // Purge emptied the queue.
    trace(fx, now, TraceEventKind::kSendStart,
          dispatch.chosen->message->id(), broker_id, dispatch.neighbor);

    const EdgeId true_edge = true_edges[dispatch.slot];
    // Same expression as LinkModel::sample_send_time.
    const TimeMs duration =
        dispatch.chosen->message->size_kb() * fx.draw_rate(true_edge);
    broker.queue_at(dispatch.slot).set_link_busy(true);
    if (!send_begin.empty()) send_begin[true_edge] = now;
    typename Fx::Event complete =
        make_event<typename Fx::Event>(now + duration,
                                       EventType::kSendComplete, broker_id,
                                       std::move(dispatch.chosen->message));
    complete.neighbor = dispatch.neighbor;
    fx.send(std::move(complete), true_edge, now);
  }
}

template <class Fx, class Ev>
void BrokerStep::send_complete(Fx& fx, Ev& event) {
  const TimeMs now = event.time;
  const BrokerId b = event.broker;
  Broker& broker = brokers[b];
  const Broker::QueueSlot slot = broker.slot_of(event.neighbor);
  OutputQueue& out = broker.queue_at(slot);
  out.set_link_busy(false);
  const Broker::QueueSlot resend[1] = {slot};

  const EdgeId true_edge = true_edge_by_slot[b][slot];
  if (has_faults && fx.send_cut(true_edge, send_begin[true_edge], now)) {
    // The link went down mid-transfer (possibly flapping back up before
    // the completion): the copy is lost.  A held queue keeps the rest; a
    // killed link's is unreachable too (what queued up behind the send).
    fx.loss(1);
    trace(fx, now, TraceEventKind::kLoss, event.message->id(), b,
          event.neighbor);
    if (killed[true_edge] != 0) {
      drain_slot(fx, b, slot, now);
    } else if (down[true_edge] == 0 && !out.empty()) {
      start_sends(fx, b, resend, now);
    }
    return;
  }
  trace(fx, now, TraceEventKind::kSendEnd, event.message->id(), b,
        event.neighbor);

  if (options.online_estimation) {
    RateEstimator& estimator = estimators[true_edge];
    estimator_live[true_edge] = 1;
    estimator.observe(event.message->size_kb(), now - send_begin[true_edge]);
    // The prior is the queue's construction-time belief, read straight off
    // the believed graph (the queue's edge id names it).
    out.set_believed_link(
        estimator.estimate(believed->edge(out.edge()).link.params()));
  }
  if (!fx.claim_deposit(event)) {
    fx.push(make_event<Ev>(now, EventType::kArrival, event.neighbor,
                           std::move(event.message)));
  }
  if (!out.empty()) start_sends(fx, b, resend, now);
}

template <class Fx>
void BrokerStep::drain_slot(Fx& fx, BrokerId broker_id, Broker::QueueSlot slot,
                            TimeMs now) {
  OutputQueue& out = brokers[broker_id].queue_at(slot);
  if (fx.tracing()) {
    for (const QueuedMessage& queued : out.messages()) {
      trace(fx, now, TraceEventKind::kLoss, queued.message->id(), broker_id,
            out.neighbor());
    }
  }
  const std::size_t dropped = out.clear();
  if (dropped > 0) fx.loss(dropped);
}

template <class Fx>
void BrokerStep::apply_faults(Fx& fx, const FaultBatch& batch, TimeMs now) {
  // 1. Broker crashes: the input queue, the in-progress message (doomed at
  //    its kProcessed via the (f - PD, f] cut test) and every output queue
  //    die with the process.  Incident edges go down via edges_down below
  //    (compilation folded broker windows into them).
  for (const BrokerId b : batch.brokers_down) {
    broker_down[b] = 1;
    if (options.serialize_processing) {
      auto& pending = input_queues[b];
      if (fx.tracing()) {
        for (const auto& message : pending) {
          trace(fx, now, TraceEventKind::kLoss, message->id(), b);
        }
      }
      if (!pending.empty()) fx.loss(pending.size());
      pending.clear();
      processing_busy[b] = 0;
    }
    const auto queue_count =
        static_cast<Broker::QueueSlot>(brokers[b].queue_count());
    for (Broker::QueueSlot slot = 0; slot < queue_count; ++slot) {
      drain_slot(fx, b, slot, now);
    }
  }
  // 2. Edge downs: hold semantics — queued copies wait for recovery (the
  //    purge policy applies deadline pressure at the next pick); an
  //    in-flight send is doomed by the (s, c] cut test at its completion.
  for (const EdgeId e : batch.edges_down) down[e] = 1;
  // 3. Recoveries: brokers restart (empty queues), edges clear.
  for (const BrokerId b : batch.brokers_up) broker_down[b] = 0;
  for (const EdgeId e : batch.edges_up) down[e] = 0;
  // 3b. Incremental routing repair: re-point subscription rows around the
  //     new link state.  Edge ids are translated into the fabric's believed
  //     graph (identity unless the ids diverge); copies already queued keep
  //     following their original rows.
  std::size_t repaired_rows = 0;
  if (options.repair_fabric != nullptr &&
      (!batch.edges_down.empty() || !batch.edges_up.empty())) {
    const Graph& fabric_graph = options.repair_fabric->graph();
    const auto translate = [&](const std::vector<EdgeId>& in) {
      std::vector<EdgeId> out;
      out.reserve(in.size());
      for (const EdgeId e : in) {
        const Edge& edge = topology->graph.edge(e);
        const EdgeId fe = fabric_graph.edge_id(edge.from, edge.to);
        if (fe != kNoEdge) out.push_back(fe);
      }
      return out;
    };
    repaired_rows = options.repair_fabric->apply_link_state(
        translate(batch.edges_down), translate(batch.edges_up));
#ifndef NDEBUG
    options.repair_fabric->check_invariants();
#endif
  }
  fx.fault_batch(repaired_rows);
  // 4. Kills: the link is gone for good, its queue drained as losses (an
  //    in-flight send is doomed by the cut test).  Never repaired, never
  //    kicked, never up again.
  for (const EdgeId e : batch.edges_killed) {
    down[e] = 1;
    killed[e] = 1;
    const Edge& edge = topology->graph.edge(e);
    const Broker::QueueSlot slot = brokers[edge.from].slot_of(edge.to);
    if (slot != Broker::kNoSlot) drain_slot(fx, edge.from, slot, now);
  }
  // 5. Each recovered edge whose queue held copies through the outage (and
  //    whose link is idle) starts sending again, in edge-id order (a killed
  //    edge is never in `edges_up`).
  for (const EdgeId e : batch.edges_up) {
    const Edge& edge = topology->graph.edge(e);
    const Broker::QueueSlot slot = brokers[edge.from].slot_of(edge.to);
    if (slot == Broker::kNoSlot) continue;
    const OutputQueue& out = brokers[edge.from].queue_at(slot);
    if (out.empty() || out.link_busy()) continue;
    const Broker::QueueSlot kick[1] = {slot};
    start_sends(fx, edge.from, kick, now);
  }
}

}  // namespace bdps
