// Output-queue scheduling interface: Strategy + per-queue SchedulerState.
//
// §3.2: each broker keeps one output queue per downstream neighbour; when
// the link becomes free the broker must decide which queued message to send
// next (eq. 3–10).
//
// The API has two levels:
//
//  * `Strategy` — an immutable description of the policy (kind + params,
//    e.g. the EBPC weight r).  One instance is shared by every broker of a
//    run; it carries no mutable state and is safe to use from any thread.
//
//  * `SchedulerState` — minted by `Strategy::make_state` and owned by one
//    `OutputQueue`.  It observes the queue through lifecycle hooks, each
//    handed the queue's rows, and answers `pick` incrementally instead of
//    rescanning every row:
//
//      on_enqueue(queue, i) — a row was just appended at index `i`.
//      on_remove(queue, i)  — row `i` is about to be removed; the back row
//                             will be swapped into its slot (see take_at).
//      on_tick(queue, ctx)  — a new scheduling instant begins (rate-estimate
//                             or clock updates); called by
//                             OutputQueue::take_next before the purge scan.
//      pick(queue, ctx)     — index of the message to send next (queue
//                             non-empty).  A one-row queue answers 0 at once.
//
//    FIFO and RL order by time-invariant keys, so their state is an
//    indexed min-heap: O(log n) per enqueue/remove and O(1) per pick.
//    EB/PC/EBPC/LB keep the kernel-row argmax but remember, per row, an
//    upper bound on its score that can only decay as time advances; rows
//    whose stale bound cannot beat the running best are skipped without
//    touching their kernel rows.  Bounds are invalidated only by enqueues,
//    removals and clock regressions — never by FT / rate-estimate drift,
//    which the bounds are independent of.  PD cannot move them: it is a
//    constant of the queue, folded into each row once at enqueue.
//
// Every state is pick-identical to the stateless rescan: the reference
// argmax survives as `Strategy::reference_pick`, and
// tests/scheduling/scheduler_state_test.cpp proves equivalence across
// randomized enqueue/remove/purge/tick interleavings, calling each state's
// check_invariants after every operation.
//
// The engine path is `OutputQueue` (broker/output_queue.h): it is built
// with the run's Strategy, mints its state at construction (again when a
// link failure clears it) and forwards every hook; one-shot callers (tests,
// offline tooling) use `reference_pick`.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "scheduling/kernel.h"
#include "scheduling/success.h"

namespace bdps {

/// The five strategies evaluated in the paper, plus the lower-bound
/// comparator from its related-work discussion (kLowerBound: schedule by
/// expected benefit computed against the *guaranteed* bandwidth
/// mu + 2 sigma instead of the full distribution — the OverQoS-style
/// planning the paper argues is less efficient).
enum class StrategyKind {
  kFifo,
  kRemainingLifetime,
  kEb,
  kPc,
  kEbpc,
  kLowerBound,
};

/// Parses "FIFO" / "RL" / "EB" / "PC" / "EBPC" / "LB"; throws
/// std::invalid_argument on unknown names.
StrategyKind parse_strategy(const std::string& name);
std::string strategy_name(StrategyKind kind);

/// Deterministic tie order shared by every strategy: exactly tied scores
/// break on (enqueue_time, message id) — oldest first — so service order is
/// independent of queue positions (take_at permutes indices, never these
/// keys).
inline bool tie_break_before(const QueuedMessage& a, const QueuedMessage& b) {
  return a.enqueue_time < b.enqueue_time ||
         (a.enqueue_time == b.enqueue_time && a.message->id() < b.message->id());
}

/// Per-output-queue scheduling state.  The owner hands every hook the
/// queue's rows and calls them in lockstep with the queue:
/// `on_enqueue(queue, i)` after appending at `i`, `on_remove(queue, i)`
/// *before* `take_at(queue, i)` runs, `on_tick(queue, ctx)` when a new
/// scheduling instant begins.  One queue is driven by one thread at a time
/// (same contract as the scoring kernel).
class SchedulerState {
 public:
  using Rows = std::span<const QueuedMessage>;

  virtual ~SchedulerState() = default;

  virtual void on_enqueue(Rows queue, std::size_t index) = 0;
  virtual void on_remove(Rows queue, std::size_t index) = 0;
  virtual void on_tick(Rows, const SchedulingContext&) {}

  /// Index of the message to send next; `queue` is non-empty.
  virtual std::size_t pick(Rows queue, const SchedulingContext& context) = 0;

  /// Throws std::logic_error when the state's row mirror does not match
  /// `queue`, or when a score bound that the next pick at `context` would
  /// prune with lies below its row's exact score there.
  virtual void check_invariants(Rows queue,
                                const SchedulingContext& context) const = 0;
};

/// Immutable scheduling policy: kind + parameters.  Shared across queues
/// and threads; all per-queue mutability lives in the SchedulerState
/// objects it mints.
class Strategy {
 public:
  /// `ebpc_weight` is the EB weight r of eq. (10); only used by kEbpc.
  /// Throws std::invalid_argument when r is outside [0, 1].
  explicit Strategy(StrategyKind kind, double ebpc_weight = 0.5);

  StrategyKind kind() const { return kind_; }
  double ebpc_weight() const { return ebpc_weight_; }

  /// Human-readable name ("EB", "FIFO", "EBPC(r=...)", ...).
  std::string name() const;

  /// Mints the incremental state of one empty queue.
  std::unique_ptr<SchedulerState> make_state() const;

  /// Stateless reference argmax: a full O(rows · targets) rescan through
  /// the scoring kernel.  This is the semantic contract every
  /// SchedulerState must match pick-for-pick; kept for tests, one-shot
  /// tooling and the equivalence suite.
  std::size_t reference_pick(std::span<const QueuedMessage> queue,
                             const SchedulingContext& context) const;

 private:
  StrategyKind kind_;
  double ebpc_weight_;
};

/// Factory.  Strategies are immutable, so the result is freely shared.
std::unique_ptr<const Strategy> make_strategy(StrategyKind kind,
                                              double ebpc_weight = 0.5);

// ---- Metric helpers (exposed for tests, benches and custom strategies) ----
//
// All helpers evaluate through the precomputed kernel (scheduling/kernel.h)
// and read a scored QueuedMessage (precompute_scores ran on it); they are
// allocation-free and O(1) per score term.

/// EB_m of eq. (3) for a queued message (sum over its queue-local targets).
double expected_benefit(const QueuedMessage& queued,
                        const SchedulingContext& context);

/// EB'_m of eq. (8): expected benefit when this broker sends the message in
/// the second place (the head-of-line estimate FT is added to every fdl).
double postponed_benefit(const QueuedMessage& queued,
                         const SchedulingContext& context);

/// PC_m = EB_m - EB'_m (eq. 9).
double postponing_cost(const QueuedMessage& queued,
                       const SchedulingContext& context);

/// EBPC_m = r*EB_m + (1-r)*PC_m (eq. 10).
double ebpc_metric(const QueuedMessage& queued,
                   const SchedulingContext& context, double weight);

/// Mean remaining lifetime across the message's targets (the paper's SSD
/// adaptation of the RL baseline; equals the single remaining lifetime
/// under PSD).
TimeMs mean_remaining_lifetime(const QueuedMessage& queued, TimeMs now);

/// Lower-bound benefit: sum of price over targets whose deadline holds at
/// the pessimistic (mu + 2 sigma) path rate — the kLowerBound score.
double lower_bound_benefit(const QueuedMessage& queued,
                           const SchedulingContext& context);

}  // namespace bdps
