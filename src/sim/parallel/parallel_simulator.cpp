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
    : core_(topology, believed, fabric, strategy, std::move(options),
            link_rng),
      plan_(ShardPlan::greedy_edge_cut(
          topology->graph, effective_shards(core_.options, *topology))) {
  const std::size_t broker_count = topology->graph.broker_count();
  const std::size_t edge_count = topology->graph.edge_count();

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
      next_rate_[edge] = core_.draw_rate(edge);
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
    shards_[s].lane.bind(broker_count);
  }
  mailboxes_.resize(shard_count * shard_count);
}

void ParallelSimulator::schedule_publish(
    std::shared_ptr<const Message> message) {
  pending_publishes_.push_back(std::move(message));
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

void ParallelSimulator::build_initial_lanes() {
  // Initial sequence order mirrors the sequential engine's push order:
  // fault batches (constructor) first, then publishes in schedule order.
  // Batches never enter a lane — they are applied coordinator-side between
  // rounds — but their sequence numbers are reserved here so every later
  // sequence lines up bit for bit.
  if (core_.has_faults) next_seq_ += core_.options.faults->batches().size();
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
    const auto [interested, potential] = core_.interest(*message);
    LaneEvent event;
    event.time = message->publish_time();
    event.type = EventType::kPublish;
    event.broker = core_.topology->publisher_edges.at(
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
        shard.lane.top().time <= core_.options.horizon) {
      return true;
    }
  }
  return false;
}

TimeMs ParallelSimulator::next_batch_time() const {
  if (!core_.has_faults) return kNoDeadline;
  const auto& batches = core_.options.faults->batches();
  if (batch_cursor_ >= batches.size()) return kNoDeadline;
  const TimeMs at = batches[batch_cursor_].at;
  // The sequential engine stops at the first event past its horizon; a
  // batch beyond it never applies.
  return at <= core_.options.horizon ? at : kNoDeadline;
}

bool ParallelSimulator::batch_due(TimeMs at) const {
  for (const Shard& shard : shards_) {
    if (!shard.lane.empty() && shard.lane.top().time < at) return false;
  }
  return true;
}

void ParallelSimulator::push_rate(EdgeId edge, double rate) {
  const Edge& e = core_.topology->graph.edge(edge);
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
      // A down (held or killed) edge cannot start a send before the next
      // fault batch, and rounds never span a batch instant.
      if (core_.has_faults && core_.down[e] != 0) continue;
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
    chain += core_.options.processing_delay;
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
          (record.time == champion.time && record.seq < champion.seq)) {
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
          // Held until a batch.
          if (core_.has_faults && core_.down[e] != 0) continue;
          deposit_bound_ = std::min(
              deposit_bound_, base + next_rate_[e] * min_size_kb_);
        }
        const double internal_rate = lazy_min_rate(broker_rate_heap_[b]);
        if (internal_rate != kNoDeadline) {
          const TimeMs chain = base + internal_rate * min_size_kb_ +
                               core_.options.processing_delay;
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

// ---------------------------------------------------------------------------
// Effects of the shared step
// ---------------------------------------------------------------------------

/// A shard worker's step: collector and trace effects are logged for the
/// barrier replay, children get shard-banded ids and unresolved sequence
/// numbers, and a send's arrival is deposited at send start when P > 1.
struct ParallelSimulator::ShardEffects {
  using Event = LaneEvent;
  ParallelSimulator* sim;
  Shard* shard;
  bool traced;

  ShardEffects(ParallelSimulator* s, Shard* owner)
      : sim(s), shard(owner), traced(s->trace_ != nullptr) {}

  void log(LoggedOp::Kind kind, std::size_t n = 0, double a = 0.0,
           double b = 0.0, double c = 0.0, std::size_t n2 = 0) {
    LoggedOp op;
    op.kind = kind;
    op.a = a;
    op.b = b;
    op.c = c;
    op.n = n;
    op.n2 = n2;
    shard->ops.push_back(op);
  }
  bool tracing() const { return traced; }
  void trace(const TraceEvent& event) {
    log(LoggedOp::Kind::kTrace, shard->traces.size());
    shard->traces.push_back(event);
  }
  void publish(std::size_t interested, double potential) {
    log(LoggedOp::Kind::kPublish, interested, potential);
  }
  void reception() { log(LoggedOp::Kind::kReception); }
  void delivery(SubscriberId, MessageId, TimeMs delay, TimeMs deadline,
                double price) {
    log(LoggedOp::Kind::kDelivery, 0, delay, deadline, price);
  }
  void fan_out(std::size_t) {}
  void purge(const PurgeStats& stats) {
    if (stats.expired == 0 && stats.hopeless == 0) return;
    log(LoggedOp::Kind::kPurge, stats.expired, 0.0, 0.0, 0.0,
        stats.hopeless);
  }
  void loss(std::size_t copies) { log(LoggedOp::Kind::kLoss, copies); }
  void input_depth(std::size_t depth) {
    log(LoggedOp::Kind::kInputDepth, depth);
  }
  void fault_batch(std::size_t) {
    throw std::logic_error("ParallelSimulator: fault batch in a shard lane");
  }

  std::pair<std::size_t, double> interest(const Event& publish) {
    return {publish.interested, publish.potential};
  }
  void push(Event child) {
    child.id = mint_id();
    child.seq = kUnresolvedSeq;
    shard->children.push_back(child.id);
    shard->lane.push(std::move(child));
  }
  double draw_rate(EdgeId edge) { return sim->take_rate(edge); }
  void send(Event complete, EdgeId edge, TimeMs start) {
    sim->ship(*this, std::move(complete), edge, start);
  }
  std::uint64_t mint_id() { return shard->id_band | ++shard->next_id; }
  void deposit(Event arrival, EdgeId edge) {
    if (sim->is_cut_.test(edge)) {
      sim->mailbox(shard->index, sim->plan_.shard_of(arrival.broker))
          .push(std::move(arrival));
    } else {
      shard->lane.push(std::move(arrival));
    }
  }
  bool claim_deposit(Event& complete) {
    if (sim->plan_.shard_count() == 1) return false;
    // The arrival was deposited at send start (mailbox or own lane); claim
    // its sequence slot here, where the sequential engine pushes it.
    assert(complete.deposited_child != 0);
    shard->children.push_back(complete.deposited_child);
    return true;
  }
  bool send_cut(EdgeId edge, TimeMs start, TimeMs end) const {
    return sim->core_.lost_in_flight(edge, start, end);
  }
  bool processing_cut(BrokerId broker, TimeMs from, TimeMs to) const {
    return sim->core_.lost_in_processing(broker, from, to);
  }
  StepScratch& scratch() { return shard->scratch; }
};

/// The coordinator's step at a barrier (fault batches and their recovery
/// kicks; no other rule runs there): every earlier event has merged, so
/// collector and trace effects apply directly, children take their
/// sequence numbers inline with ids from band 0, and deposits go straight
/// into the destination lane (the mailboxes are idle).
struct ParallelSimulator::BarrierEffects : DirectRecord {
  using Event = LaneEvent;
  ParallelSimulator* sim;

  explicit BarrierEffects(ParallelSimulator* s)
      : DirectRecord{&s->collector_, s->trace_}, sim(s) {}

  void push(Event child) {
    child.seq = sim->next_seq_++;
    child.id = mint_id();
    sim->shards_[sim->plan_.shard_of(child.broker)].lane.push(
        std::move(child));
  }
  double draw_rate(EdgeId edge) { return sim->take_rate(edge); }
  void send(Event complete, EdgeId edge, TimeMs start) {
    sim->ship(*this, std::move(complete), edge, start);
  }
  std::uint64_t mint_id() { return sim->next_initial_id_++; }
  void deposit(Event arrival, EdgeId) {
    sim->shards_[sim->plan_.shard_of(arrival.broker)].lane.push(
        std::move(arrival));
  }
  StepScratch& scratch() { return sim->barrier_scratch_; }
};

double ParallelSimulator::take_rate(EdgeId edge) {
  if (plan_.shard_count() == 1) return core_.draw_rate(edge);
  // Consume the pre-drawn rate and replenish it (stream position k for
  // send k, exactly like the sequential engine's lazy draw); the fresh
  // rate feeds the lazy lookahead heaps.
  const double rate = next_rate_[edge];
  next_rate_[edge] = core_.draw_rate(edge);
  push_rate(edge, next_rate_[edge]);
  return rate;
}

template <class Fx>
void ParallelSimulator::ship(Fx& fx, LaneEvent complete, EdgeId edge,
                             TimeMs start) {
  if (plan_.shard_count() > 1 &&
      !core_.lost_in_flight(edge, start, complete.time)) {
    // The arrival instant is already known: deposit the arrival at send
    // start — into the destination shard's mailbox for cut edges, into
    // this very lane for internal ones.  Either way the destination
    // broker's future arrival becomes a *visible pending event*, which is
    // what lets the safe horizon reason per broker instead of charging
    // whole-shard worst cases; its sequence number is claimed later by the
    // completion's record (deposited_child), exactly where the sequential
    // engine pushes the arrival.
    LaneEvent arrival = make_event<LaneEvent>(
        complete.time, EventType::kArrival, complete.neighbor,
        complete.message);
    arrival.id = fx.mint_id();
    complete.deposited_child = arrival.id;
    // Push order matters at the shared completion instant: the completion
    // must take the smaller lane key so it pops (and assigns the arrival's
    // sequence) first.
    fx.push(std::move(complete));
    fx.deposit(std::move(arrival), edge);
    return;
  }
  fx.push(std::move(complete));
}

bool ParallelSimulator::apply_due_batch() {
  const TimeMs at = next_batch_time();
  if (at == kNoDeadline || !batch_due(at)) return false;
  // Every event before the batch instant has merged, so next_seq_ equals
  // the sequential engine's push counter at its kFault pop and the
  // coordinator's effects apply directly.
  const FaultBatch& batch = core_.options.faults->batches()[batch_cursor_++];
  now_ = batch.at;
  BarrierEffects fx(this);
  core_.apply_faults(fx, batch, now_);
  return true;
}

void ParallelSimulator::run() {
  build_initial_lanes();
  // A run that drained on its own (not cut off at the horizon) must leave
  // the overlay quiescent.
  const auto check_drained = [this] {
#ifndef NDEBUG
    if (std::all_of(shards_.begin(), shards_.end(),
                    [](const Shard& shard) { return shard.lane.empty(); })) {
      core_.check_invariants();
    }
#endif
  };
  const std::size_t shard_count = plan_.shard_count();
  if (shard_count == 1) {
    // One lane: the window is unbounded (up to the next fault batch) and
    // every "round" is the full remaining stretch — the merge still
    // replays through the same machinery.
    stats_.shard_cpu_ms.assign(1, 0.0);
    for (;;) {
      if (apply_due_batch()) continue;
      if (!any_runnable()) break;
      const double lane_start = thread_cpu_ms();
      process_shard(0, next_batch_time());
      const double lane_ms = thread_cpu_ms() - lane_start;
      stats_.rounds += 1;
      stats_.critical_path_ms += lane_ms;
      stats_.worker_cpu_ms += lane_ms;
      stats_.shard_cpu_ms[0] += lane_ms;
      const double merge_start = thread_cpu_ms();
      merge_and_route();
      stats_.merge_ms += thread_cpu_ms() - merge_start;
    }
    check_drained();
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
    if (apply_due_batch()) {
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
    fold_horizon(next_batch_time());
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
  check_drained();
}

// ---------------------------------------------------------------------------
// Worker side (shard-local)
// ---------------------------------------------------------------------------

void ParallelSimulator::process_shard(std::size_t shard_index,
                                      TimeMs horizon) {
  Shard& shard = shards_[shard_index];
  LaneQueue& lane = shard.lane;
  ShardEffects fx(this, &shard);
  while (!lane.empty() && lane.top().time < horizon &&
         lane.top().time <= core_.options.horizon) {
    LaneEvent event = lane.pop();
    Record record;
    record.time = event.time;
    record.event_id = event.id;
    record.seq = event.seq;
    record.ops_begin = static_cast<std::uint32_t>(shard.ops.size());
    record.children_begin =
        static_cast<std::uint32_t>(shard.children.size());
    if (event.type == EventType::kFault) {
      // Fault batches are applied by the coordinator (apply_due_batch)
      // between windows; one in a shard lane is a broken invariant.
      throw std::logic_error(
          "ParallelSimulator: fault event reached a shard lane");
    }
    core_.step(fx, event);
    record.ops_end = static_cast<std::uint32_t>(shard.ops.size());
    record.children_end = static_cast<std::uint32_t>(shard.children.size());
    shard.records.push_back(record);
  }
}

}  // namespace bdps
