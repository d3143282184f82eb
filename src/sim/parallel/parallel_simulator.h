// Sharded parallel discrete-event engine, bitwise-identical to Simulator.
//
// The event semantics are not here: every publish, arrival, processing
// step, send completion and fault batch is applied by the same BrokerStep
// (sim/broker_step.h) Simulator runs.  This engine owns the *ordering*
// only — lanes, mailboxes, the safe horizon, the barrier merge and
// EngineStats — and hands the step two Effects policies: a shard worker's,
// which logs every collector/trace effect and child id for the merge, and
// the coordinator's, which applies them directly at a barrier (fault
// batches, terminal link kills included, and their recovery kicks).
//
// ParallelSimulator partitions the brokers into P shards (ShardPlan), gives
// each shard its own event lane (LaneQueue) plus one SPSC mailbox per
// destination shard, and advances all lanes in lock-step *conservative
// windows*:
//
//   round:   every shard, on its own thread, pops and handles its lane's
//            events with time < H.  The safe horizon H bounds the earliest
//            instant any cross-cut arrival could still carry: a cut-edge
//            send at broker b starts no earlier than b's next pending
//            event, or — reached through the shard interior — the
//            cheapest (event-pending broker -> internal transmission ->
//            processing stage) chain; adding the cut edge's own pre-drawn
//            transmission time gives its bound, and H is the minimum over
//            cut edges.  Per-broker granularity is what makes windows wide
//            on large graphs: idle brokers (the vast majority) do not
//            constrain H at all, which is why arrivals are deposited into
//            lanes at *send start* — a future arrival is a visible pending
//            event at its destination broker.  Each shard computes its own
//            bound contribution at the end of its round (pruned walk of
//            the lane's broker index), so the horizon pass parallelises
//            with the lanes.
//   barrier: a coordinator merges the shards' per-round logs back into the
//            exact global (time, sequence) order of the sequential engine,
//            replays the order-sensitive side effects (collector, trace)
//            in that order, and routes mailbox deposits into their
//            destination lanes (folding the deposits' own horizon
//            contributions, since they land after the workers' bound pass).
//
// Bitwise identity with Simulator rests on the shared step plus three
// ordering mechanisms:
//
//   1.  Per-edge RNG streams (owned by the shared step): the
//       k-th send on an edge consumes the k-th sample of that edge's
//       stream, so draw *values* are independent of cross-edge
//       interleaving.  The parallel engine pre-draws every edge's next
//       rate — the same stream position the sequential engine would
//       consume lazily — which is what makes the lookahead *exact* rather
//       than a distribution floor.
//   2.  Deposit-at-send-start: when a send starts, its completion instant
//       is already known, so the arrival event is shipped immediately —
//       through the SPSC mailbox for cut edges, into the own lane for
//       internal ones (unless a fault batch cuts the link mid-flight).
//       The safe horizon guarantees cross-shard deposits land beyond every
//       destination's current window; the sender-side kSendComplete event
//       keeps only the local bookkeeping (busy flag, estimator, loss
//       handling, resend) plus the claim on the arrival's sequence slot.
//   3.  Sequence reconstruction: every handled event produces a barrier
//       record carrying its (time, seq) key and the ids of the events it
//       pushed, in push order.  The merge consumes the per-shard
//       record logs (each already in local pop order) by ascending key,
//       assigning fresh sequence numbers to children exactly as the
//       sequential heap would have — records whose own seq is still pending
//       resolve it from their parent mid-merge (provably available before
//       they can become the merge minimum).
//
// Determinism: nothing observable depends on thread timing — mailboxes are
// drained only at barriers, per-round worker processing is a pure function
// of the round's inputs, and the merge order is a pure function of the
// logs.  The collector/trace output is the sequential engine's, bit for
// bit, for every shard count and every shard plan; the golden suite pins
// this at P in {1, 2, 4, 7} (tests/sim/parallel/).
//
// Known edge of the contract: deposit-at-send-start assigns an arrival's
// lane position when the send *starts*, so an event whose timestamp
// collides bit-for-bit with a deposited arrival's completion instant —
// cross-shard (two deposits in one destination lane) or same-shard (an
// internal deposit vs a child pushed between the send's start and its
// completion) — tie-breaks by deposit/push order instead of the sequential
// push order.  Such collisions require independently-derived time sums to
// agree to the last bit; none of the pinned workloads exhibits one.
//
// The engine requires every scheduled message to have a positive size
// (lookahead would otherwise be zero and windows could not advance);
// construction with shards > 1 rejects non-positive sizes at run().
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "common/spsc_queue.h"
#include "common/window_barrier.h"
#include "sim/broker_step.h"
#include "sim/collector.h"
#include "sim/parallel/lane.h"
#include "sim/parallel/seq_map.h"
#include "sim/parallel/shard_plan.h"
#include "topology/edge_map.h"
#include "trace/trace.h"

namespace bdps {

class ParallelSimulator {
 public:
  /// Same contract as Simulator's constructor; `options.shards` selects the
  /// lane count (0 and 1 both mean one lane; the value is clamped to the
  /// broker count).  The shard plan is ShardPlan::greedy_edge_cut.
  ParallelSimulator(const Topology* topology, const Graph* believed,
                    const RoutingFabric* fabric, const Strategy* strategy,
                    SimulatorOptions options, Rng link_rng);

  /// Schedules a publication; call before run() (like Simulator).
  void schedule_publish(std::shared_ptr<const Message> message);

  /// Attaches an event trace (optional).  Replayed at window barriers in
  /// exact sequential order, so sinks need no thread safety.
  void set_trace(TraceSink* sink) { trace_ = sink; }

  /// Runs to completion (all lanes drained or horizon reached).
  void run();

  TimeMs now() const { return now_; }
  const Collector& collector() const { return collector_; }
  const Broker& broker(BrokerId id) const { return core_.brokers[id]; }
  const ShardPlan& plan() const { return plan_; }

  /// Per-run engine accounting, collected with per-thread CPU clocks so the
  /// numbers stay meaningful on an oversubscribed (or single-core) host:
  /// `critical_path_ms + merge_ms` models the wall time of a perfectly
  /// scheduled P-core execution, `worker_cpu_ms` is the total work done in
  /// lanes (the sequential engine's share of it is the speedup numerator).
  struct EngineStats {
    std::size_t rounds = 0;
    /// Sum over rounds of the slowest lane's CPU time (ms).
    double critical_path_ms = 0.0;
    /// Total lane CPU across all shards and rounds (ms).
    double worker_cpu_ms = 0.0;
    /// Coordinator CPU in merge + routing (serial section, ms).
    double merge_ms = 0.0;
    /// Coordinator CPU computing safe horizons (serial section, ms).
    double horizon_ms = 0.0;
    /// Worker CPU spent in per-shard bound passes (parallel section, ms).
    double bound_ms = 0.0;
    /// Total lane CPU per shard (load-balance diagnostic).
    std::vector<double> shard_cpu_ms;
  };
  const EngineStats& stats() const { return stats_; }

  /// Online estimator for a true-graph directed link; nullptr when
  /// online_estimation is off or the link never carried a send.
  const RateEstimator* estimator(EdgeId edge) const {
    return core_.estimator(edge);
  }

 private:
  /// One order-sensitive side effect of a handled event, replayed by the
  /// coordinator in exact sequential order at the window barrier.
  struct LoggedOp {
    enum class Kind : std::uint8_t {
      kPublish,     // a = interested, b = potential earning.
      kReception,   //
      kDelivery,    // a = delay, b = effective deadline, c = price.
      kPurge,       // n = expired, n2 = hopeless.
      kLoss,        // n = destroyed copies.
      kInputDepth,  // n = input-queue depth observed.
      kTrace,       // n = index into the shard's trace arena.
    };
    Kind kind = Kind::kReception;
    double a = 0.0;
    double b = 0.0;
    double c = 0.0;
    std::size_t n = 0;
    std::size_t n2 = 0;
  };

  /// Barrier record of one handled event: its global order key plus spans
  /// into the shard's op/child arenas.
  struct Record {
    TimeMs time = 0.0;
    std::uint64_t event_id = 0;
    std::uint64_t seq = kUnresolvedSeq;
    std::uint32_t ops_begin = 0;
    std::uint32_t ops_end = 0;
    std::uint32_t children_begin = 0;
    std::uint32_t children_end = 0;
  };

  /// Lazy min-heap entry: the pre-drawn rate of an edge's next send at the
  /// time the entry was pushed; stale once next_rate_ moved on.
  struct RateEntry {
    double rate = 0.0;
    EdgeId edge = kNoEdge;
  };

  struct Shard {
    std::size_t index = 0;
    LaneQueue lane;
    /// Round log arenas (cleared, not freed, each round).  Trace rows live
    /// in their own arena so untraced runs pay nothing for them.
    std::vector<Record> records;
    std::vector<LoggedOp> ops;
    std::vector<std::uint64_t> children;
    std::vector<TraceEvent> traces;
    /// Shard-banded event-id allocation (band 0 is the coordinator's).
    std::uint64_t id_band = 0;
    std::uint64_t next_id = 0;
    StepScratch scratch;
    /// Cumulative CPU spent in compute_shard_bound (diagnostic).
    double bound_cpu_ms = 0.0;
    /// This shard's contribution to the next round's safe horizon,
    /// computed by the worker at the end of its round (post-round lane
    /// state) so the horizon pass runs in parallel instead of serially.
    TimeMs next_bound = kNoDeadline;
    /// This round's lane CPU time (worker-written, coordinator-read at the
    /// barrier; thread CPU clock, so preemption does not inflate it).
    double round_cpu_ms = 0.0;
  };

  /// Effects of a step run by a shard worker (logged for the merge) and
  /// by the coordinator at a barrier (applied directly).
  struct ShardEffects;
  struct BarrierEffects;

  // ---- Worker-side (shard-local) machinery ----
  void process_shard(std::size_t shard_index, TimeMs horizon);
  /// The rate of `edge`'s next send: drawn now at P = 1, else the
  /// pre-drawn one, replaced by the next sample of the stream.
  double take_rate(EdgeId edge);
  /// A send started: pushes its completion and, when the arrival instant
  /// is final (P > 1, no fault cut before it), deposits the arrival at
  /// send start.
  template <class Fx>
  void ship(Fx& fx, LaneEvent complete, EdgeId edge, TimeMs start);

  // ---- Coordinator-side machinery ----
  void build_initial_lanes();
  /// Folds the workers' per-shard bounds + the routed-deposit corrections
  /// into the round's global horizon, capped at the next fault batch's
  /// instant (kNoDeadline when no batch pends) — rounds never span a batch.
  void fold_horizon(TimeMs batch_at);
  /// Instant of the next unapplied fault batch; kNoDeadline when none is
  /// left (or the next one lies beyond the run horizon).
  TimeMs next_batch_time() const;
  /// True when no lane holds an event strictly before `at` — the batch's
  /// reserved sequence number precedes every ordinary event's, so at its
  /// own instant it is the global minimum.
  bool batch_due(TimeMs at) const;
  /// Applies the next fault batch through the step when it is due (every
  /// lane's events before its instant have merged); false otherwise.
  bool apply_due_batch();
  /// Worker-side: this shard's minimum cut-edge bound over its pending
  /// brokers (direct terms) and intra-shard chains.
  void compute_shard_bound(Shard& shard);
  bool any_runnable() const;
  void merge_and_route();
  void replay(const Shard& shard, const LoggedOp& op);

  /// Lazy min-rate heap helpers (see the .cpp's horizon notes).
  void push_rate(EdgeId edge, double rate);
  double lazy_min_rate(std::vector<RateEntry>& heap) const;

  SpscQueue<LaneEvent>& mailbox(std::size_t from, std::size_t to) {
    return mailboxes_[from * plan_.shard_count() + to];
  }

  BrokerStep core_;
  ShardPlan plan_;
  Collector collector_;
  TimeMs now_ = 0.0;
  TraceSink* trace_ = nullptr;
  EngineStats stats_;

  /// Cut-edge membership (read-only after construction) and per-cut-edge
  /// lookahead state.
  EdgeFlags is_cut_;
  EdgeMap<double> next_rate_;

  /// Next unapplied batch in the plan.  The step's fault state (down
  /// edges, crashed brokers) is written only at barriers — fold_horizon
  /// caps every round at the next batch instant, so a round never observes
  /// a transition — and read racelessly by workers mid-round.
  std::size_t batch_cursor_ = 0;
  StepScratch barrier_scratch_;
  /// CSR of each broker's *cut* out-edges (with the destination shard
  /// pre-resolved) — the safe-horizon pass walks the cut edges of
  /// event-pending brokers only, so idle regions of the graph never narrow
  /// the window.
  std::vector<std::uint32_t> cut_out_offset_;
  std::vector<EdgeId> cut_out_edges_;
  std::vector<std::uint32_t> cut_out_dst_shard_;
  /// Lazy min-heaps over the pre-drawn next-send rates: one per broker for
  /// its *internal* out-edges (the chain lower bound), one per
  /// (source shard, destination shard) pair for the cut edges.  Redraws
  /// push fresh entries; stale entries fall out on pop.  Written by the
  /// owning shard's worker, read/pruned by the coordinator — barrier-
  /// synchronised, never concurrent.
  std::vector<std::vector<RateEntry>> broker_rate_heap_;
  std::vector<std::vector<RateEntry>> pair_rate_heap_;

  std::vector<Shard> shards_;
  std::vector<SpscQueue<LaneEvent>> mailboxes_;

  /// Pending publishes until run(); drained into the lanes stamped, with
  /// their eq. (1)/(2) inputs precomputed.
  std::vector<std::shared_ptr<const Message>> pending_publishes_;
  double min_size_kb_ = 0.0;

  /// Global sequence counter (the sequential heap's push order).
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_initial_id_ = 1;
  /// Child-id -> final-seq resolution map.  Persistent across rounds (a
  /// deposit's sequence is assigned when its sender-side completion record
  /// merges, possibly several windows after the deposit shipped).
  FlatSeqMap resolved_;
  std::vector<std::size_t> merge_cursor_;

  // ---- Round synchronisation (P > 1 only) ----
  /// The current round's (global) safe horizon.
  TimeMs round_horizon_ = 0.0;
  /// Horizon correction for deposits routed at the last barrier (their
  /// destination lanes changed after the workers computed their bounds).
  TimeMs deposit_bound_ = kNoDeadline;
  bool stop_workers_ = false;
  std::unique_ptr<WindowBarrier> round_start_;
  std::unique_ptr<WindowBarrier> round_end_;
  std::exception_ptr worker_error_;
  std::mutex worker_error_mutex_;
};

}  // namespace bdps
