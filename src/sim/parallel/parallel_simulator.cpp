#include "sim/parallel/parallel_simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ctime>
#include <stdexcept>
#include <thread>
#include <utility>

namespace bdps {

namespace {

std::size_t effective_shards(const SimulatorOptions& options,
                             const Topology& topology) {
  const std::size_t requested = options.shards == 0 ? 1 : options.shards;
  return std::min(requested,
                  std::max<std::size_t>(1, topology.graph.broker_count()));
}

/// CPU time of the calling thread in milliseconds — robust against
/// preemption, which is what makes the engine's critical-path accounting
/// meaningful on oversubscribed hosts.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

}  // namespace

ParallelSimulator::ParallelSimulator(const Topology* topology,
                                     const Graph* believed,
                                     const RoutingFabric* fabric,
                                     const Strategy* strategy,
                                     SimulatorOptions options, Rng link_rng)
    : topology_(topology),
      believed_(believed),
      fabric_(fabric),
      options_(options),
      plan_(ShardPlan::greedy_edge_cut(topology->graph,
                                       effective_shards(options, *topology))) {
  const std::size_t broker_count = topology->graph.broker_count();
  const std::size_t edge_count = topology->graph.edge_count();

  brokers_.reserve(broker_count);
  for (std::size_t b = 0; b < broker_count; ++b) {
    brokers_.emplace_back(static_cast<BrokerId>(b), fabric, believed,
                          strategy, options_.processing_delay,
                          /*queues_for_all_links=*/options_.repair_fabric !=
                              nullptr);
  }
  // Identical slot -> true-edge resolution (and validation) as Simulator.
  true_edge_by_slot_.resize(broker_count);
  for (std::size_t b = 0; b < broker_count; ++b) {
    const Broker& broker = brokers_[b];
    auto& edges = true_edge_by_slot_[b];
    edges.reserve(broker.queue_count());
    for (const OutputQueue& queue : broker.queues()) {
      const EdgeId true_edge = topology->graph.edge_id(
          static_cast<BrokerId>(b), queue.neighbor());
      if (true_edge == kNoEdge) {
        throw std::logic_error(
            "believed link has no counterpart in the true topology");
      }
      edges.push_back(true_edge);
    }
  }
  // Identical per-edge stream derivation as Simulator: stream e is the e-th
  // split of the constructor's generator.
  link_rngs_.resize(edge_count);
  for (std::size_t e = 0; e < edge_count; ++e) {
    link_rngs_[e].rng = link_rng.split();
  }
  if (options_.online_estimation) {
    send_started_.assign(edge_count, 0.0);
    estimators_.assign(edge_count,
                       RateEstimator(options_.estimator_min_samples));
    estimator_live_.assign(edge_count, 0);
  }
  if (options_.dedup_arrivals) {
    seen_.resize(broker_count);
  }
  if (options_.serialize_processing) {
    input_queues_.resize(broker_count);
    processing_busy_.assign(broker_count, 0);
  }
  death_time_.assign(edge_count, kNoDeadline);
  for (const LinkFailure& failure : options_.failures) {
    const auto n = static_cast<BrokerId>(broker_count);
    if (failure.a < 0 || failure.a >= n || failure.b < 0 || failure.b >= n) {
      throw std::invalid_argument(
          "link failure references a broker outside the topology");
    }
    const EdgeId forward = topology->graph.edge_id(failure.a, failure.b);
    if (forward != kNoEdge) {
      death_time_[forward] = std::min(death_time_[forward], failure.at);
    }
    const EdgeId backward = topology->graph.edge_id(failure.b, failure.a);
    if (backward != kNoEdge) {
      death_time_[backward] = std::min(death_time_[backward], failure.at);
    }
  }
  if (options_.faults != nullptr && !options_.faults->empty()) {
    has_faults_ = true;
    down_.assign(edge_count);
    broker_down_.assign(broker_count, 0);
    send_begin_.assign(edge_count, 0.0);
  }

  const std::size_t shard_count = plan_.shard_count();
  is_cut_.assign(edge_count);
  for (const EdgeId e : plan_.cut_edges()) is_cut_.set(e);
  next_rate_.assign(edge_count, 0.0);
  broker_rate_heap_.resize(broker_count);
  pair_rate_heap_.resize(shard_count * shard_count);
  if (shard_count > 1) {
    // Pre-draw every edge's next send rate: sample k of stream e is
    // consumed by send k whether it is drawn lazily (the sequential
    // engine) or one send ahead — only the draw *instant* moves, never the
    // value.  The pre-drawn rates are what make the safe horizon *exact*:
    // the next transmission on any edge is known, not estimated.
    for (std::size_t e = 0; e < edge_count; ++e) {
      const auto edge = static_cast<EdgeId>(e);
      next_rate_[edge] =
          topology->graph.edge(edge).link.sample_rate(link_rngs_[e].rng);
      push_rate(edge, next_rate_[edge]);
    }
  }

  // Per-broker cut-edge CSR (+ pre-resolved destination shards): the
  // horizon pass walks only the cut edges of event-pending brokers.
  cut_out_offset_.assign(broker_count + 1, 0);
  for (const EdgeId e : plan_.cut_edges()) {
    ++cut_out_offset_[static_cast<std::size_t>(
        topology->graph.edge(e).from) + 1];
  }
  for (std::size_t b = 0; b < broker_count; ++b) {
    cut_out_offset_[b + 1] += cut_out_offset_[b];
  }
  cut_out_edges_.resize(plan_.cut_edges().size());
  cut_out_dst_shard_.resize(plan_.cut_edges().size());
  {
    std::vector<std::uint32_t> fill(cut_out_offset_.begin(),
                                    cut_out_offset_.end() - 1);
    for (const EdgeId e : plan_.cut_edges()) {
      const std::uint32_t at = fill[static_cast<std::size_t>(
          topology->graph.edge(e).from)]++;
      cut_out_edges_[at] = e;
      cut_out_dst_shard_[at] = plan_.shard_of(topology->graph.edge(e).to);
    }
  }

  shards_.resize(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_[s].index = s;
    shards_[s].id_band = (static_cast<std::uint64_t>(s) + 1) << 48;
    shards_[s].dead.assign(edge_count);
    shards_[s].lane.bind(broker_count);
  }
  mailboxes_.resize(shard_count * shard_count);
}

void ParallelSimulator::schedule_publish(
    std::shared_ptr<const Message> message) {
  pending_publishes_.push_back(std::move(message));
}

const RateEstimator* ParallelSimulator::estimator(EdgeId edge) const {
  if (estimators_.empty()) return nullptr;
  if (edge < 0 ||
      static_cast<std::size_t>(edge) >= topology_->graph.edge_count()) {
    return nullptr;
  }
  if (estimator_live_[edge] == 0) return nullptr;
  return &estimators_[edge];
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

void ParallelSimulator::build_initial_lanes() {
  // Initial sequence order mirrors the sequential engine's push order:
  // fault batches (constructor) first, then failures, then publishes in
  // schedule order.  Batches never enter a lane — they are applied
  // coordinator-side between rounds — but their sequence numbers are
  // reserved here so every later sequence lines up bit for bit.
  if (has_faults_) next_seq_ += options_.faults->batches().size();
  for (const LinkFailure& failure : options_.failures) {
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t shard_a = plan_.shard_of(failure.a);
    const std::uint32_t shard_b = plan_.shard_of(failure.b);
    LaneEvent event;
    event.time = failure.at;
    event.type = EventType::kLinkFailure;
    event.broker = failure.a;
    event.neighbor = failure.b;
    event.seq = seq;
    event.half = 0;
    event.id = next_initial_id_++;
    shards_[shard_a].lane.push(event);
    if (shard_b != shard_a) {
      // The b-side half shares the failure's sequence number and replays
      // second (half = 1), reproducing the sequential drain order.  It is
      // anchored on *its own* broker — a lane must never hold a foreign
      // broker's event, or the other shard's bound pass would race with
      // this shard's lane walk over that broker's rate heap.
      event.half = 1;
      event.id = next_initial_id_++;
      event.broker = failure.b;
      event.neighbor = failure.a;
      shards_[shard_b].lane.push(std::move(event));
    }
  }
  min_size_kb_ = kNoDeadline;
  for (auto& message : pending_publishes_) {
    if (plan_.shard_count() > 1 && message->size_kb() <= 0.0) {
      throw std::invalid_argument(
          "ParallelSimulator requires positive message sizes (zero "
          "transmission-time lookahead); use shards = 0");
    }
    min_size_kb_ = std::min(min_size_kb_, message->size_kb());
    // Eq. (1)/(2) inputs come from the fabric's *global* index, whose
    // match scratch is not thread-safe; resolve them up front.
    std::size_t interested = 0;
    double potential = 0.0;
    for (const std::size_t index : fabric_->match_all(*message)) {
      const Subscription& sub = fabric_->subscription(index);
      if (!sub.active_at(message->publish_time())) continue;
      ++interested;
      potential += sub.price;
    }
    LaneEvent event;
    event.time = message->publish_time();
    event.type = EventType::kPublish;
    event.broker = topology_->publisher_edges.at(
        static_cast<std::size_t>(message->publisher()));
    event.seq = next_seq_++;
    event.id = next_initial_id_++;
    event.interested = static_cast<std::uint32_t>(interested);
    event.potential = potential;
    event.message = std::move(message);
    shards_[plan_.shard_of(event.broker)].lane.push(std::move(event));
  }
  pending_publishes_.clear();
}

bool ParallelSimulator::any_runnable() const {
  for (const Shard& shard : shards_) {
    if (!shard.lane.empty() &&
        shard.lane.top().time <= options_.horizon) {
      return true;
    }
  }
  return false;
}

TimeMs ParallelSimulator::next_batch_time() const {
  if (!has_faults_) return kNoDeadline;
  const auto& batches = options_.faults->batches();
  if (batch_cursor_ >= batches.size()) return kNoDeadline;
  const TimeMs at = batches[batch_cursor_].at;
  // The sequential engine stops at the first event past its horizon; a
  // batch beyond it never applies.
  return at <= options_.horizon ? at : kNoDeadline;
}

bool ParallelSimulator::batch_due(TimeMs at) const {
  for (const Shard& shard : shards_) {
    if (!shard.lane.empty() && shard.lane.top().time < at) return false;
  }
  return true;
}

void ParallelSimulator::push_rate(EdgeId edge, double rate) {
  const Edge& e = topology_->graph.edge(edge);
  std::vector<RateEntry>& heap =
      is_cut_.test(edge)
          ? pair_rate_heap_[plan_.shard_of(e.from) * plan_.shard_count() +
                            plan_.shard_of(e.to)]
          : broker_rate_heap_[static_cast<std::size_t>(e.from)];
  heap.push_back(RateEntry{rate, edge});
  std::push_heap(heap.begin(), heap.end(), [](const RateEntry& a,
                                              const RateEntry& b) {
    return a.rate > b.rate;
  });
}

double ParallelSimulator::lazy_min_rate(std::vector<RateEntry>& heap) const {
  const auto greater = [](const RateEntry& a, const RateEntry& b) {
    return a.rate > b.rate;
  };
  while (!heap.empty() &&
         next_rate_[heap.front().edge] != heap.front().rate) {
    std::pop_heap(heap.begin(), heap.end(), greater);
    heap.pop_back();  // Superseded by a later redraw.
  }
  return heap.empty() ? kNoDeadline : heap.front().rate;
}

void ParallelSimulator::compute_shard_bound(Shard& shard) {
  // A send on a cut edge e = (b -> d) during a round starts no earlier than
  //
  //     min( next event time at b,                        [own trigger]
  //          min over event-pending brokers x of
  //              next event time at x
  //              + (x's cheapest internal next-send) + PD )  [chain trigger]
  //
  // — every in-round causal chain roots in an event already in the lane
  // (arrivals of sends started in earlier rounds are deposited at send
  // start, so they *are* lane events), and a chain that reaches b from
  // another broker must cross at least one internal transmission, whose
  // pre-drawn rate is exact, plus one processing stage.  Chains through
  // other shards cannot re-enter mid-round (deposits defer to the
  // barrier).  Adding e's own pre-drawn transmission time bounds the
  // earliest cross-cut arrival.
  //
  // Walking *pending brokers only* is the load-bearing refinement: a
  // shard's whole cut is thousands of edges whose rate minimum sits deep in
  // the distribution's tail, while the active frontier is a few hundred
  // brokers whose own edges and event times gate far wider windows.  The
  // running-minimum prune skips most of even those with one comparison.
  const std::size_t shard_count = plan_.shard_count();
  TimeMs bound = kNoDeadline;
  TimeMs chain = kNoDeadline;
  shard.lane.visit_pending_brokers_pruned([&](BrokerId broker,
                                              const LaneEvent& head) {
    const TimeMs base = head.time;
    if (base >= bound && base >= chain) return false;  // Prune subtree.
    const auto b = static_cast<std::size_t>(broker);
    for (std::uint32_t i = cut_out_offset_[b]; i < cut_out_offset_[b + 1];
         ++i) {
      const EdgeId e = cut_out_edges_[i];
      if (death_time_[e] <= base) continue;  // Dead before any send.
      // A held (down) edge cannot start a send before the next fault batch,
      // and rounds never span a batch instant.
      if (has_faults_ && down_.test(e)) continue;
      const TimeMs candidate = base + next_rate_[e] * min_size_kb_;
      if (candidate < bound) bound = candidate;
    }
    const double internal_rate = lazy_min_rate(broker_rate_heap_[b]);
    if (internal_rate != kNoDeadline) {
      chain = std::min(chain, base + internal_rate * min_size_kb_);
    }
    return true;
  });
  if (chain != kNoDeadline) {
    chain += options_.processing_delay;
    for (std::size_t d = 0; d < shard_count; ++d) {
      if (d == shard.index) continue;
      const double cut_rate =
          lazy_min_rate(pair_rate_heap_[shard.index * shard_count + d]);
      if (cut_rate == kNoDeadline) continue;  // No cut edges this way.
      bound = std::min(bound, chain + cut_rate * min_size_kb_);
    }
  }
  shard.next_bound = bound;
}

void ParallelSimulator::fold_horizon(TimeMs batch_at) {
  TimeMs horizon = deposit_bound_;
  for (const Shard& shard : shards_) {
    horizon = std::min(horizon, shard.next_bound);
  }
  // A pending fault batch is a hard wall: its transitions must apply (in
  // global order, coordinator-side) before any event at or past its
  // instant processes.
  if (horizon > batch_at) horizon = batch_at;
  // Guarantee progress: floating-point rounding can collapse a bound onto
  // the global minimum event time when a lookahead is below half an ulp;
  // nudging one ulp past the minimum lets those events process.  (Any
  // deposit they create still lands at or after that minimum, so nothing
  // is lost; at worst an exact same-instant tie replays in deposit order.)
  TimeMs min_top = kNoDeadline;
  for (const Shard& shard : shards_) {
    if (!shard.lane.empty()) {
      min_top = std::min(min_top, shard.lane.top().time);
    }
  }
  // (The nudge cannot step past a pending batch: when the batch is not yet
  // due, some lane top is strictly earlier, so nextafter(min_top) never
  // exceeds batch_at.)
  if (horizon <= min_top) horizon = std::nextafter(min_top, kNoDeadline);
  round_horizon_ = horizon;
}

void ParallelSimulator::merge_and_route() {
  const std::size_t shard_count = plan_.shard_count();
  merge_cursor_.assign(shard_count, 0);
  for (;;) {
    std::size_t best = shard_count;
    for (std::size_t s = 0; s < shard_count; ++s) {
      std::vector<Record>& records = shards_[s].records;
      if (merge_cursor_[s] >= records.size()) continue;
      Record& record = records[merge_cursor_[s]];
      if (record.seq == kUnresolvedSeq) {
        std::uint64_t seq;
        if (resolved_.find(record.event_id, seq)) record.seq = seq;
      }
      if (record.seq == kUnresolvedSeq) {
        // An unresolved head cannot be the merge minimum: its parent is
        // unconsumed at a strictly smaller (time, seq) key in some log.
        continue;
      }
      if (best == shard_count) {
        best = s;
        continue;
      }
      const Record& champion = shards_[best].records[merge_cursor_[best]];
      if (record.time < champion.time ||
          (record.time == champion.time &&
           (record.seq < champion.seq ||
            (record.seq == champion.seq && record.half < champion.half)))) {
        best = s;
      }
    }
    if (best == shard_count) {
      for (std::size_t s = 0; s < shard_count; ++s) {
        if (merge_cursor_[s] < shards_[s].records.size()) {
          throw std::logic_error(
              "parallel merge stalled on an unresolved record");
        }
      }
      break;
    }
    Shard& shard = shards_[best];
    const Record& record = shard.records[merge_cursor_[best]++];
    now_ = record.time;
    // Children take their global sequence numbers here, in push order —
    // exactly when the sequential heap would have assigned them.
    for (std::uint32_t c = record.children_begin; c < record.children_end;
         ++c) {
      resolved_.insert(shard.children[c], next_seq_++);
    }
    for (std::uint32_t o = record.ops_begin; o < record.ops_end; ++o) {
      replay(shard, shard.ops[o]);
    }
  }
  // Events still waiting in lanes keep kUnresolvedSeq; their records
  // resolve from the persistent map when they eventually merge, so no lane
  // sweep is needed here.
  for (Shard& shard : shards_) {
    shard.records.clear();
    shard.ops.clear();
    shard.children.clear();
    shard.traces.clear();
  }
  // Route this round's cross-shard deposits (deterministic order: source
  // shards ascending, FIFO within each mailbox), folding each deposit's
  // horizon contribution — destination lanes change *after* the workers
  // computed their bounds, so the sends a deposit can trigger are bounded
  // here instead.
  deposit_bound_ = kNoDeadline;
  for (std::size_t from = 0; from < shard_count; ++from) {
    for (std::size_t to = 0; to < shard_count; ++to) {
      if (from == to) continue;
      SpscQueue<LaneEvent>& box = mailbox(from, to);
      LaneEvent event;
      while (box.pop(event)) {
        const auto b = static_cast<std::size_t>(event.broker);
        const TimeMs base = event.time;
        for (std::uint32_t i = cut_out_offset_[b];
             i < cut_out_offset_[b + 1]; ++i) {
          const EdgeId e = cut_out_edges_[i];
          if (death_time_[e] <= base) continue;
          if (has_faults_ && down_.test(e)) continue;  // Held until a batch.
          deposit_bound_ = std::min(
              deposit_bound_, base + next_rate_[e] * min_size_kb_);
        }
        const double internal_rate = lazy_min_rate(broker_rate_heap_[b]);
        if (internal_rate != kNoDeadline) {
          const TimeMs chain =
              base + internal_rate * min_size_kb_ + options_.processing_delay;
          for (std::size_t d = 0; d < shard_count; ++d) {
            if (d == to) continue;
            const double cut_rate =
                lazy_min_rate(pair_rate_heap_[to * shard_count + d]);
            if (cut_rate == kNoDeadline) continue;
            deposit_bound_ =
                std::min(deposit_bound_, chain + cut_rate * min_size_kb_);
          }
        }
        shards_[to].lane.push(std::move(event));
      }
    }
  }
}

void ParallelSimulator::replay(const Shard& shard, const LoggedOp& op) {
  switch (op.kind) {
    case LoggedOp::Kind::kPublish:
      collector_.on_publish(op.n, op.a);
      break;
    case LoggedOp::Kind::kReception:
      collector_.on_reception();
      break;
    case LoggedOp::Kind::kDelivery:
      collector_.on_delivery(op.a, op.b, op.c);
      break;
    case LoggedOp::Kind::kPurge: {
      PurgeStats stats;
      stats.expired = op.n;
      stats.hopeless = op.n2;
      collector_.on_purge(stats);
      break;
    }
    case LoggedOp::Kind::kLoss:
      collector_.on_loss(op.n);
      break;
    case LoggedOp::Kind::kInputDepth:
      collector_.on_input_queue_depth(op.n);
      break;
    case LoggedOp::Kind::kTrace:
      if (trace_ != nullptr) trace_->record(shard.traces[op.n]);
      break;
  }
}

void ParallelSimulator::coordinator_drain_slot(BrokerId broker_id,
                                               Broker::QueueSlot slot) {
  OutputQueue& out = brokers_[broker_id].queue_at(slot);
  if (trace_ != nullptr) {
    for (const QueuedMessage& queued : out.messages()) {
      trace_->record(TraceEvent{now_, TraceEventKind::kLoss,
                                queued.message->id(), broker_id,
                                out.neighbor(), -1, false});
    }
  }
  const std::size_t dropped = out.clear();
  if (dropped > 0) collector_.on_loss(dropped);
}

void ParallelSimulator::coordinator_start_sends(BrokerId broker_id,
                                                Broker::QueueSlot slot) {
  // The recovery kick's single-slot start_sends, run at a barrier: side
  // effects are applied directly (the kick sits at the global-order point —
  // everything earlier has merged), the completion event takes its sequence
  // number inline, and its id comes from the coordinator's band 0.
  Shard& owner = shards_[plan_.shard_of(broker_id)];
  const EdgeId true_edge = true_edge_by_slot_[broker_id][slot];
  if (!owner.dead.none() && owner.dead.test(true_edge)) {
    coordinator_drain_slot(broker_id, slot);
    return;
  }
  if (down_.test(true_edge)) return;  // Still held by another outage.
  Broker& broker = brokers_[broker_id];
  coord_slots_.assign(1, slot);
  broker.take_next(coord_slots_, now_, options_.purge, coord_dispatch_,
                   nullptr, trace_ != nullptr);
  for (Broker::Dispatch& dispatch : coord_dispatch_) {
    collector_.on_purge(dispatch.purge);
    if (trace_ != nullptr) {
      for (const MessageId id : dispatch.purged_ids) {
        trace_->record(TraceEvent{now_, TraceEventKind::kPurge, id, broker_id,
                                  dispatch.neighbor, -1, false});
      }
    }
    if (!dispatch.chosen.has_value()) continue;  // Purge emptied the queue.
    if (trace_ != nullptr) {
      trace_->record(TraceEvent{now_, TraceEventKind::kSendStart,
                                dispatch.chosen->message->id(), broker_id,
                                dispatch.neighbor, -1, false});
    }
    const LinkModel& link = topology_->graph.edge(true_edge).link;
    double rate;
    if (plan_.shard_count() > 1) {
      rate = next_rate_[true_edge];
      next_rate_[true_edge] = link.sample_rate(link_rngs_[true_edge].rng);
      push_rate(true_edge, next_rate_[true_edge]);
    } else {
      rate = link.sample_rate(link_rngs_[true_edge].rng);
    }
    const TimeMs duration = dispatch.chosen->message->size_kb() * rate;

    broker.queue_at(slot).set_link_busy(true);
    if (options_.online_estimation) send_started_[true_edge] = now_;
    send_begin_[true_edge] = now_;
    LaneEvent complete;
    complete.time = now_ + duration;
    complete.type = EventType::kSendComplete;
    complete.broker = broker_id;
    complete.neighbor = dispatch.neighbor;
    complete.seq = next_seq_++;
    complete.id = next_initial_id_++;
    complete.message = std::move(dispatch.chosen->message);
    if (plan_.shard_count() > 1 && complete.time < death_time_[true_edge] &&
        !options_.faults->edge_cut_between(true_edge, now_, complete.time)) {
      // Deposit at send start, straight into the destination lane (the
      // mailboxes are idle at a barrier).  Completion first: at the shared
      // instant it must take the smaller lane key so it pops — and assigns
      // the arrival's sequence via deposited_child — first.
      LaneEvent arrival;
      arrival.time = complete.time;
      arrival.type = EventType::kArrival;
      arrival.broker = dispatch.neighbor;
      arrival.message = complete.message;
      arrival.id = next_initial_id_++;
      complete.deposited_child = arrival.id;
      owner.lane.push(std::move(complete));
      shards_[plan_.shard_of(dispatch.neighbor)].lane.push(
          std::move(arrival));
      continue;
    }
    owner.lane.push(std::move(complete));
  }
}

void ParallelSimulator::apply_fault_batch() {
  // Coordinator-side mirror of Simulator::handle_fault — identical
  // canonical order; see the NOTE there.  At this point every event before
  // the batch instant has merged, so next_seq_ equals the sequential
  // engine's push counter at its kFault pop and side effects apply
  // directly.
  const FaultBatch& batch = options_.faults->batches()[batch_cursor_++];
  now_ = batch.at;
  // 1. Broker crashes: input queue, in-progress message (doomed at its
  //    kProcessed) and every output queue die with the process.
  for (const BrokerId b : batch.brokers_down) {
    broker_down_[b] = 1;
    if (options_.serialize_processing) {
      auto& pending = input_queues_[b];
      if (trace_ != nullptr) {
        for (const auto& message : pending) {
          trace_->record(TraceEvent{now_, TraceEventKind::kLoss,
                                    message->id(), b, kNoBroker, -1, false});
        }
      }
      if (!pending.empty()) collector_.on_loss(pending.size());
      pending.clear();
      processing_busy_[b] = 0;
    }
    const auto queue_count =
        static_cast<Broker::QueueSlot>(brokers_[b].queue_count());
    for (Broker::QueueSlot slot = 0; slot < queue_count; ++slot) {
      coordinator_drain_slot(b, slot);
    }
  }
  // 2. Edge downs: hold semantics (copies wait for recovery).
  for (const EdgeId e : batch.edges_down) down_.set(e);
  // 3. Recoveries.
  for (const BrokerId b : batch.brokers_up) broker_down_[b] = 0;
  for (const EdgeId e : batch.edges_up) down_.reset(e);
  // 3b. Incremental routing repair (see Simulator::handle_fault).
  if (options_.repair_fabric != nullptr &&
      (!batch.edges_down.empty() || !batch.edges_up.empty())) {
    const Graph& believed = options_.repair_fabric->graph();
    const auto translate = [&](const std::vector<EdgeId>& in) {
      std::vector<EdgeId> out;
      out.reserve(in.size());
      for (const EdgeId e : in) {
        const Edge& edge = topology_->graph.edge(e);
        const EdgeId fe = believed.edge_id(edge.from, edge.to);
        if (fe != kNoEdge) out.push_back(fe);
      }
      return out;
    };
    options_.repair_fabric->apply_link_state(translate(batch.edges_down),
                                             translate(batch.edges_up));
  }
  // 4. Recovery kicks, in edge-id order.
  for (const EdgeId e : batch.edges_up) {
    const Edge& edge = topology_->graph.edge(e);
    const Broker::QueueSlot slot = brokers_[edge.from].slot_of(edge.to);
    if (slot == Broker::kNoSlot) continue;
    const OutputQueue& out = brokers_[edge.from].queue_at(slot);
    if (out.empty() || out.link_busy()) continue;
    coordinator_start_sends(edge.from, slot);
  }
}

void ParallelSimulator::run() {
  build_initial_lanes();
  const std::size_t shard_count = plan_.shard_count();
  if (shard_count == 1) {
    // One lane: the window is unbounded (up to the next fault batch) and
    // every "round" is the full remaining stretch — the merge still
    // replays through the same machinery.
    stats_.shard_cpu_ms.assign(1, 0.0);
    for (;;) {
      const TimeMs batch_at = next_batch_time();
      if (batch_at != kNoDeadline && batch_due(batch_at)) {
        apply_fault_batch();
        continue;
      }
      if (!any_runnable()) break;
      const double lane_start = thread_cpu_ms();
      process_shard(0, batch_at);
      const double lane_ms = thread_cpu_ms() - lane_start;
      stats_.rounds += 1;
      stats_.critical_path_ms += lane_ms;
      stats_.worker_cpu_ms += lane_ms;
      stats_.shard_cpu_ms[0] += lane_ms;
      const double merge_start = thread_cpu_ms();
      merge_and_route();
      stats_.merge_ms += thread_cpu_ms() - merge_start;
    }
    return;
  }

  stats_.shard_cpu_ms.assign(shard_count, 0.0);
  round_start_ = std::make_unique<WindowBarrier>(shard_count);
  round_end_ = std::make_unique<WindowBarrier>(shard_count);
  stop_workers_ = false;
  worker_error_ = nullptr;

  std::vector<std::thread> workers;
  workers.reserve(shard_count - 1);
  for (std::size_t s = 1; s < shard_count; ++s) {
    workers.emplace_back([this, s] {
      for (;;) {
        round_start_->arrive_and_wait();
        if (stop_workers_) return;
        const double lane_start = thread_cpu_ms();
        try {
          process_shard(s, round_horizon_);
          const double bound_start = thread_cpu_ms();
          compute_shard_bound(shards_[s]);
          shards_[s].bound_cpu_ms += thread_cpu_ms() - bound_start;
        } catch (...) {
          const std::lock_guard<std::mutex> lock(worker_error_mutex_);
          if (!worker_error_) worker_error_ = std::current_exception();
        }
        shards_[s].round_cpu_ms = thread_cpu_ms() - lane_start;
        round_end_->arrive_and_wait();
      }
    });
  }

  // Initial per-shard bounds (the workers keep them fresh from here on).
  {
    const double horizon_start = thread_cpu_ms();
    for (Shard& shard : shards_) compute_shard_bound(shard);
    stats_.horizon_ms += thread_cpu_ms() - horizon_start;
  }
  for (;;) {
    const TimeMs batch_at = next_batch_time();
    if (batch_at != kNoDeadline && batch_due(batch_at)) {
      apply_fault_batch();
      // The batch changed queue and lane state (drains, recovery kicks);
      // refresh every shard's bound before the next fold.  Serial, but
      // batches are rare relative to rounds.
      const double refresh_start = thread_cpu_ms();
      for (Shard& shard : shards_) compute_shard_bound(shard);
      stats_.horizon_ms += thread_cpu_ms() - refresh_start;
      continue;
    }
    if (!any_runnable()) break;
    const double horizon_start = thread_cpu_ms();
    fold_horizon(batch_at);
    stats_.horizon_ms += thread_cpu_ms() - horizon_start;
    round_start_->arrive_and_wait();
    const double lane_start = thread_cpu_ms();
    try {
      process_shard(0, round_horizon_);
      const double bound_start = thread_cpu_ms();
      compute_shard_bound(shards_[0]);
      shards_[0].bound_cpu_ms += thread_cpu_ms() - bound_start;
    } catch (...) {
      const std::lock_guard<std::mutex> lock(worker_error_mutex_);
      if (!worker_error_) worker_error_ = std::current_exception();
    }
    shards_[0].round_cpu_ms = thread_cpu_ms() - lane_start;
    round_end_->arrive_and_wait();
    if (worker_error_) break;
    stats_.rounds += 1;
    double slowest = 0.0;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      stats_.worker_cpu_ms += shards_[s].round_cpu_ms;
      stats_.shard_cpu_ms[s] += shards_[s].round_cpu_ms;
      slowest = std::max(slowest, shards_[s].round_cpu_ms);
    }
    stats_.critical_path_ms += slowest;
    const double merge_start = thread_cpu_ms();
    try {
      merge_and_route();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(worker_error_mutex_);
      if (!worker_error_) worker_error_ = std::current_exception();
      break;
    }
    stats_.merge_ms += thread_cpu_ms() - merge_start;
  }

  stop_workers_ = true;
  round_start_->arrive_and_wait();
  for (std::thread& worker : workers) worker.join();
  for (const Shard& shard : shards_) stats_.bound_ms += shard.bound_cpu_ms;
  if (worker_error_) std::rethrow_exception(worker_error_);
}

// ---------------------------------------------------------------------------
// Worker side (shard-local)
// ---------------------------------------------------------------------------

std::uint64_t ParallelSimulator::mint_id(Shard& shard) {
  return shard.id_band | ++shard.next_id;
}

std::uint64_t ParallelSimulator::push_local_child(Shard& shard,
                                                  LaneEvent event) {
  event.id = mint_id(shard);
  event.seq = kUnresolvedSeq;
  const std::uint64_t id = event.id;
  shard.children.push_back(id);
  shard.lane.push(std::move(event));
  return id;
}

void ParallelSimulator::log_trace(Shard& shard, TimeMs now,
                                  TraceEventKind kind, MessageId message,
                                  BrokerId broker, BrokerId neighbor,
                                  SubscriberId subscriber, bool valid) {
  if (trace_ == nullptr) return;
  LoggedOp op;
  op.kind = LoggedOp::Kind::kTrace;
  op.n = shard.traces.size();
  shard.traces.push_back(
      TraceEvent{now, kind, message, broker, neighbor, subscriber, valid});
  shard.ops.push_back(op);
}

void ParallelSimulator::process_shard(std::size_t shard_index,
                                      TimeMs horizon) {
  Shard& shard = shards_[shard_index];
  LaneQueue& lane = shard.lane;
  while (!lane.empty() && lane.top().time < horizon &&
         lane.top().time <= options_.horizon) {
    LaneEvent event = lane.pop();
    Record record;
    record.time = event.time;
    record.event_id = event.id;
    record.seq = event.seq;
    record.half = event.half;
    record.ops_begin = static_cast<std::uint32_t>(shard.ops.size());
    record.children_begin =
        static_cast<std::uint32_t>(shard.children.size());
    switch (event.type) {
      case EventType::kPublish:
        handle_publish(shard, event);
        break;
      case EventType::kArrival:
        handle_arrival(shard, event);
        break;
      case EventType::kProcessed:
        handle_processed(shard, event);
        break;
      case EventType::kSendComplete:
        handle_send_complete(shard, event);
        break;
      case EventType::kLinkFailure:
        handle_link_failure(shard, event);
        break;
      case EventType::kFault:
        // Fault batches are applied by the coordinator (apply_fault_batch)
        // between windows; one in a shard lane is a broken invariant.
        throw std::logic_error(
            "ParallelSimulator: fault event reached a shard lane");
    }
    record.ops_end = static_cast<std::uint32_t>(shard.ops.size());
    record.children_end = static_cast<std::uint32_t>(shard.children.size());
    shard.records.push_back(record);
  }
}

void ParallelSimulator::handle_publish(Shard& shard, LaneEvent& event) {
  LoggedOp op;
  op.kind = LoggedOp::Kind::kPublish;
  op.n = event.interested;
  op.a = event.potential;
  shard.ops.push_back(op);
  log_trace(shard, event.time, TraceEventKind::kPublish, event.message->id(),
            event.broker);

  LaneEvent arrival;
  arrival.time = event.time;
  arrival.type = EventType::kArrival;
  arrival.broker = event.broker;
  arrival.message = std::move(event.message);
  push_local_child(shard, std::move(arrival));
}

void ParallelSimulator::handle_arrival(Shard& shard, LaneEvent& event) {
  LoggedOp op;
  op.kind = LoggedOp::Kind::kReception;
  shard.ops.push_back(op);
  log_trace(shard, event.time, TraceEventKind::kArrival, event.message->id(),
            event.broker);
  if (has_faults_ && broker_down_[event.broker] != 0) {
    // The copy reached a crashed broker: nothing is listening.
    LoggedOp loss;
    loss.kind = LoggedOp::Kind::kLoss;
    loss.n = 1;
    shard.ops.push_back(loss);
    log_trace(shard, event.time, TraceEventKind::kLoss, event.message->id(),
              event.broker);
    return;
  }
  if (options_.dedup_arrivals &&
      !seen_[event.broker].insert(event.message->id())) {
    return;  // Duplicate copy over a redundant path; count it, drop it.
  }
  if (options_.serialize_processing) {
    if (processing_busy_[event.broker] != 0) {
      auto& pending = input_queues_[event.broker];
      pending.push_back(std::move(event.message));
      LoggedOp depth;
      depth.kind = LoggedOp::Kind::kInputDepth;
      depth.n = pending.size();
      shard.ops.push_back(depth);
      return;
    }
    processing_busy_[event.broker] = 1;
  }
  LaneEvent processed;
  processed.time = event.time + options_.processing_delay;
  processed.type = EventType::kProcessed;
  processed.broker = event.broker;
  processed.message = std::move(event.message);
  push_local_child(shard, std::move(processed));
}

void ParallelSimulator::handle_processed(Shard& shard, LaneEvent& event) {
  if (has_faults_ &&
      options_.faults->broker_cut_between(
          event.broker, event.time - options_.processing_delay, event.time)) {
    // The broker crashed while this message was in its processing stage —
    // the in-progress work is gone even if the broker already restarted.
    LoggedOp loss;
    loss.kind = LoggedOp::Kind::kLoss;
    loss.n = 1;
    shard.ops.push_back(loss);
    log_trace(shard, event.time, TraceEventKind::kLoss, event.message->id(),
              event.broker);
    return;
  }
  Broker& broker = brokers_[event.broker];
  log_trace(shard, event.time, TraceEventKind::kProcessed,
            event.message->id(), event.broker);
  const Broker::FanOut fanout = broker.process(event.message, event.time);

  for (const SubscriptionEntry* entry : fanout.local) {
    const TimeMs delay = event.message->elapsed(event.time);
    const TimeMs deadline = entry->effective_deadline(*event.message);
    LoggedOp op;
    op.kind = LoggedOp::Kind::kDelivery;
    op.a = delay;
    op.b = deadline;
    op.c = entry->subscription->price;
    shard.ops.push_back(op);
    log_trace(shard, event.time, TraceEventKind::kDeliver,
              event.message->id(), event.broker, kNoBroker,
              entry->subscription->subscriber, delay <= deadline);
  }
  if (trace_ != nullptr) {
    for (const Broker::QueueSlot slot : fanout.enqueued) {
      log_trace(shard, event.time, TraceEventKind::kEnqueue,
                event.message->id(), event.broker,
                broker.queue_at(slot).neighbor());
    }
  }
  start_sends(shard, event.broker, fanout.sendable, event.time);

  if (options_.serialize_processing) {
    auto& pending = input_queues_[event.broker];
    if (pending.empty()) {
      processing_busy_[event.broker] = 0;
    } else {
      LaneEvent next;
      next.time = event.time + options_.processing_delay;
      next.type = EventType::kProcessed;
      next.broker = event.broker;
      next.message = std::move(pending.front());
      pending.pop_front();
      push_local_child(shard, std::move(next));
    }
  }
}

void ParallelSimulator::start_sends(Shard& shard, BrokerId broker_id,
                                    std::span<const Broker::QueueSlot> slots,
                                    TimeMs now) {
  const std::vector<EdgeId>& true_edges = true_edge_by_slot_[broker_id];
  shard.live_slots.clear();
  if (shard.dead.none() && (!has_faults_ || down_.none())) {
    shard.live_slots.assign(slots.begin(), slots.end());
  } else {
    for (const Broker::QueueSlot slot : slots) {
      const EdgeId true_edge = true_edges[slot];
      if (!shard.dead.none() && shard.dead.test(true_edge)) {
        drain_dead_slot(shard, broker_id, slot, now);
      } else if (has_faults_ && down_.test(true_edge)) {
        // Fault-timeline outage: hold the copies; the recovery batch (or a
        // post-flap completion) kicks this queue again.
      } else {
        shard.live_slots.push_back(slot);
      }
    }
  }
  if (shard.live_slots.empty()) return;
  Broker& broker = brokers_[broker_id];

  // The dispatch pool is the sequential engine's intra-run parallelism; the
  // sharded engine brings its own and keeps per-queue work on this thread.
  broker.take_next(shard.live_slots, now, options_.purge, shard.dispatch,
                   nullptr, trace_ != nullptr);

  for (Broker::Dispatch& dispatch : shard.dispatch) {
    if (dispatch.purge.expired != 0 || dispatch.purge.hopeless != 0) {
      LoggedOp op;
      op.kind = LoggedOp::Kind::kPurge;
      op.n = dispatch.purge.expired;
      op.n2 = dispatch.purge.hopeless;
      shard.ops.push_back(op);
    }
    for (const MessageId id : dispatch.purged_ids) {
      log_trace(shard, now, TraceEventKind::kPurge, id, broker_id,
                dispatch.neighbor);
    }
    if (!dispatch.chosen.has_value()) continue;  // Purge emptied the queue.
    log_trace(shard, now, TraceEventKind::kSendStart,
              dispatch.chosen->message->id(), broker_id, dispatch.neighbor);

    const EdgeId true_edge = true_edges[dispatch.slot];
    const LinkModel& link = topology_->graph.edge(true_edge).link;
    const bool cut = is_cut_.test(true_edge);
    double rate;
    if (plan_.shard_count() > 1) {
      // Consume the pre-drawn rate and replenish it (stream position k for
      // send k, exactly like the sequential engine's lazy draw); the fresh
      // rate feeds the lazy lookahead heaps.
      rate = next_rate_[true_edge];
      next_rate_[true_edge] = link.sample_rate(link_rngs_[true_edge].rng);
      push_rate(true_edge, next_rate_[true_edge]);
    } else {
      rate = link.sample_rate(link_rngs_[true_edge].rng);
    }
    // Same expression as LinkModel::sample_send_time — bit-identical
    // durations to the sequential engine's lazy draw.
    const TimeMs duration = dispatch.chosen->message->size_kb() * rate;

    broker.queue_at(dispatch.slot).set_link_busy(true);
    if (options_.online_estimation) {
      send_started_[true_edge] = now;
    }
    if (has_faults_) {
      send_begin_[true_edge] = now;
    }
    LaneEvent complete;
    complete.time = now + duration;
    complete.type = EventType::kSendComplete;
    complete.broker = broker_id;
    complete.neighbor = dispatch.neighbor;
    complete.message = std::move(dispatch.chosen->message);
    if (plan_.shard_count() > 1 && complete.time < death_time_[true_edge] &&
        !(has_faults_ && options_.faults->edge_cut_between(
                             true_edge, now, complete.time))) {
      // The arrival instant is already known: deposit the arrival at send
      // start — into the destination shard's mailbox for cut edges, into
      // this very lane for internal ones.  Either way the destination
      // broker's future arrival becomes a *visible pending event*, which
      // is what lets the safe horizon reason per broker instead of
      // charging whole-shard worst cases; its sequence number is claimed
      // later by the completion's record (deposited_child), exactly where
      // the sequential engine pushes the arrival.
      LaneEvent arrival;
      arrival.time = complete.time;
      arrival.type = EventType::kArrival;
      arrival.broker = dispatch.neighbor;
      arrival.message = complete.message;
      arrival.id = mint_id(shard);
      complete.deposited_child = arrival.id;
      // Push order matters at the shared completion instant: the
      // completion must take the smaller lane key so it pops (and assigns
      // the arrival's sequence) first.
      push_local_child(shard, std::move(complete));
      if (cut) {
        mailbox(shard.index, plan_.shard_of(dispatch.neighbor))
            .push(std::move(arrival));
      } else {
        shard.lane.push(std::move(arrival));
      }
      continue;
    }
    push_local_child(shard, std::move(complete));
  }
}

void ParallelSimulator::handle_send_complete(Shard& shard, LaneEvent& event) {
  Broker& broker = brokers_[event.broker];
  const Broker::QueueSlot slot = broker.slot_of(event.neighbor);
  OutputQueue& out = broker.queue_at(slot);
  out.set_link_busy(false);

  const EdgeId true_edge = true_edge_by_slot_[event.broker][slot];

  if (!shard.dead.none() && shard.dead.test(true_edge)) {
    // Cut mid-flight: the copy is lost (nothing was deposited — the death
    // instant was known at send start), and the queue is unreachable.
    LoggedOp op;
    op.kind = LoggedOp::Kind::kLoss;
    op.n = 1;
    shard.ops.push_back(op);
    log_trace(shard, event.time, TraceEventKind::kLoss, event.message->id(),
              event.broker, event.neighbor);
    drain_dead_slot(shard, event.broker, slot, event.time);
    return;
  }
  if (has_faults_ && options_.faults->edge_cut_between(
                         true_edge, send_begin_[true_edge], event.time)) {
    // The link went down mid-transfer (possibly flapping back up before
    // the completion): the copy is lost but the queue holds the rest.
    // Nothing was deposited — the deposit guard consults the same static
    // timeline at send start.
    LoggedOp op;
    op.kind = LoggedOp::Kind::kLoss;
    op.n = 1;
    shard.ops.push_back(op);
    log_trace(shard, event.time, TraceEventKind::kLoss, event.message->id(),
              event.broker, event.neighbor);
    if (!down_.test(true_edge) && !out.empty()) {
      const Broker::QueueSlot resend[1] = {slot};
      start_sends(shard, event.broker, resend, event.time);
    }
    return;
  }
  log_trace(shard, event.time, TraceEventKind::kSendEnd, event.message->id(),
            event.broker, event.neighbor);

  if (options_.online_estimation) {
    RateEstimator& estimator = estimators_[true_edge];
    estimator_live_[true_edge] = 1;
    estimator.observe(event.message->size_kb(),
                      event.time - send_started_[true_edge]);
    out.set_believed_link(
        estimator.estimate(believed_->edge(out.edge()).link.params()));
  }

  if (plan_.shard_count() > 1) {
    // The arrival was deposited at send start (mailbox or own lane); claim
    // its sequence slot here, in the position the sequential engine pushes
    // it.
    assert(event.deposited_child != 0);
    shard.children.push_back(event.deposited_child);
  } else {
    LaneEvent arrival;
    arrival.time = event.time;
    arrival.type = EventType::kArrival;
    arrival.broker = event.neighbor;
    arrival.message = std::move(event.message);
    push_local_child(shard, std::move(arrival));
  }

  if (!out.empty()) {
    const Broker::QueueSlot resend[1] = {slot};
    start_sends(shard, event.broker, resend, event.time);
  }
}

void ParallelSimulator::drain_dead_queue(Shard& shard, BrokerId broker_id,
                                         BrokerId neighbor, TimeMs now) {
  const Broker::QueueSlot slot = brokers_[broker_id].slot_of(neighbor);
  if (slot == Broker::kNoSlot) return;
  drain_dead_slot(shard, broker_id, slot, now);
}

void ParallelSimulator::drain_dead_slot(Shard& shard, BrokerId broker_id,
                                        Broker::QueueSlot slot, TimeMs now) {
  OutputQueue& out = brokers_[broker_id].queue_at(slot);
  if (trace_ != nullptr) {
    for (const QueuedMessage& queued : out.messages()) {
      log_trace(shard, now, TraceEventKind::kLoss, queued.message->id(),
                broker_id, out.neighbor());
    }
  }
  const std::size_t dropped = out.clear();
  if (dropped > 0) {
    LoggedOp op;
    op.kind = LoggedOp::Kind::kLoss;
    op.n = dropped;
    shard.ops.push_back(op);
  }
}

void ParallelSimulator::handle_link_failure(Shard& shard,
                                            const LaneEvent& event) {
  // event.broker is always the *local* broker of this half (the a-side on
  // shard(a), the b-side on shard(b)); a same-shard failure is one event
  // handling both sides, like the sequential engine.
  const BrokerId local = event.broker;
  const BrokerId remote = event.neighbor;
  // Both halves mark both directions in their private flag copy; a shard
  // only ever *tests* edges its own brokers send on.
  const EdgeId forward = topology_->graph.edge_id(local, remote);
  if (forward != kNoEdge) shard.dead.set(forward);
  const EdgeId backward = topology_->graph.edge_id(remote, local);
  if (backward != kNoEdge) shard.dead.set(backward);

  drain_dead_queue(shard, local, remote, event.time);
  if (plan_.shard_of(local) == plan_.shard_of(remote)) {
    drain_dead_queue(shard, remote, local, event.time);
  }
}

}  // namespace bdps
