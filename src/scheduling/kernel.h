// Precomputed scoring kernel for the §5 scheduling math.
//
// At every link-free instant a broker scores every queued message against
// every remaining target (eq. 3–10), so draining an n-deep queue costs
// O(n² · targets) success-probability evaluations.  Evaluating eq. (5)
// from scratch chases entry->subscription / entry->path pointers and
// re-derives the same size/path constants on every call.  Instead, the
// time-invariant part of each (message, target) pair is folded once — at
// enqueue time — into a flat ScoredTarget stored inline in the
// QueuedMessage, so one pick-time success term is
//
//   price * Phi((slack_const - now - extra) * inv_size_sigma)
//
// a subtract, a multiply and one Phi (with a saturation fast path that
// skips erfc entirely when |z| > 8).  The purge rule (eq. 11), the RL
// baseline and the LB comparator read the same precomputed row, so the
// whole pick/purge path is allocation-free and never touches the
// subscription table.
//
// scheduling/success.h remains the readable single-source-of-truth for the
// formulas; tests/scheduling/kernel_property_test.cpp proves the kernel
// agrees with it to ~1e-12 across strategies and scenario shapes.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "scheduling/success.h"

namespace bdps {

/// Time-invariant scoring constants of one (message, target) pair.
struct ScoredTarget {
  /// adl + publish_time - NN_p·PD - size·mu_p: the absolute instant at
  /// which the success probability of eq. (5) crosses 1/2.  +inf when the
  /// pair has no deadline.
  double slack_const = 0.0;
  /// 1 / (size · sigma_p); +inf when the remaining path is deterministic
  /// (eq. 5's degenerate step-function case).
  double inv_size_sigma = 0.0;
  /// price(s) — 1 under PSD.
  double price = 1.0;
  /// slack_const - z·size·sigma_p: the guaranteed-rate (LB) indicator of
  /// §2 holds while now <= lb_indicator_const.
  double lb_indicator_const = 0.0;
  /// adl + publish_time: remaining lifetime = expiry - now (RL + purge).
  double expiry = 0.0;
};

/// Folds one subscription-table row into its ScoredTarget.
/// `lb_confidence_z` is the z of the pessimistic mu + z·sigma rate used by
/// the LB indicator (the paper's comparison point uses 2).
ScoredTarget make_scored_target(const SubscriptionEntry& entry,
                                const Message& message,
                                TimeMs processing_delay,
                                double lb_confidence_z = 2.0);

/// A message waiting in one broker's output queue toward one neighbour,
/// together with the subscription-table rows it still has to serve through
/// that neighbour and their precomputed scoring constants.
struct QueuedMessage {
  QueuedMessage() = default;
  QueuedMessage(std::shared_ptr<const Message> message_in,
                TimeMs enqueue_time_in,
                std::vector<const SubscriptionEntry*> targets_in)
      : message(std::move(message_in)),
        enqueue_time(enqueue_time_in),
        targets(std::move(targets_in)) {}

  std::shared_ptr<const Message> message;
  TimeMs enqueue_time = 0.0;
  std::vector<const SubscriptionEntry*> targets;

  // Precomputed kernel state, parallel to `targets`, written only by
  // precompute_scores: OutputQueue::enqueue folds every copy once with its
  // queue's PD, and hand-built rows (tests, benches) are folded by their
  // builder before they are scored.
  std::vector<ScoredTarget> scored;
  /// Sum of finite expiries and their count (O(1) mean remaining lifetime).
  double expiry_sum = 0.0;
  std::uint32_t bounded_targets = 0;
};

/// Removes and returns queue[index] in O(1) by swapping the back element
/// into its slot.  Safe for any Scheduler built on pick_max: picks score
/// message state and break exact ties on (enqueue_time, message id), never
/// on queue position, so compaction cannot change service order.  Shared by
/// OutputQueue::take_next and the live runtime's sender loop so the
/// invariant lives in one place.
inline QueuedMessage take_at(std::vector<QueuedMessage>& queue,
                             std::size_t index) {
  QueuedMessage chosen = std::move(queue[index]);
  if (index + 1 != queue.size()) queue[index] = std::move(queue.back());
  queue.pop_back();
  return chosen;
}

/// (Re)builds `queued.scored` from `queued.targets` with the given PD.
void precompute_scores(QueuedMessage& queued, TimeMs processing_delay);

/// Phi with a saturation fast path: |z| > 8 pins the result to 0/1
/// (Phi(±8) differs from the limit by < 7e-16, far below the purge epsilon
/// and the score tolerances).  The inverted `!(z < 8)` test also routes the
/// NaN of a deterministic path hitting its boundary exactly (0 · inf) to 1,
/// matching the reference step function's `budget >= mean` convention.
inline double phi_saturated(double z) {
  if (!(z < 8.0)) return 1.0;
  if (z <= -8.0) return 0.0;
  return 0.5 * std::erfc(-z * 0.7071067811865476);
}

/// success(s, m) of eq. (5)/(7) at evaluation instant `t` = now + extra.
inline double scored_success(const ScoredTarget& st, double t) {
  return phi_saturated((st.slack_const - t) * st.inv_size_sigma);
}

/// Σ price · success over the kernel rows at each evaluation instant of
/// `t`, in row order, all in one pass: EB_m of eq. (3) at now, EB'_m of
/// eq. (8) at now + FT.  The one sum behind every EB and EB' the
/// strategies compute.  A row whose (slack_const, inv_size_sigma) equals
/// the previous row's reuses its Phi — a pure function of those two and
/// the instant — so targets sharing a deadline and a remaining path cost
/// one Phi, and each sum is bitwise the plain per-row loop's.
template <std::size_t N>
std::array<double, N> kernel_benefit_sums(
    const std::vector<ScoredTarget>& scored, const std::array<double, N>& t) {
  std::array<double, N> total{};
  std::array<double, N> success{};
  // NaN matches no row, so the first row always evaluates its Phi.
  double slack = std::numeric_limits<double>::quiet_NaN();
  double inv = slack;
  for (const ScoredTarget& st : scored) {
    if (st.slack_const != slack || st.inv_size_sigma != inv) {
      slack = st.slack_const;
      inv = st.inv_size_sigma;
      for (std::size_t k = 0; k < N; ++k) {
        success[k] = scored_success(st, t[k]);
      }
    }
    for (std::size_t k = 0; k < N; ++k) total[k] += st.price * success[k];
  }
  return total;
}

/// EB_m of eq. (3) from the kernel rows.
inline double kernel_expected_benefit(const QueuedMessage& queued,
                                      const SchedulingContext& context) {
  return kernel_benefit_sums<1>(queued.scored, {context.now})[0];
}

/// EB'_m of eq. (8): the benefit if the message waits one head-of-line
/// transmission (FT).
inline double kernel_postponed_benefit(const QueuedMessage& queued,
                                       const SchedulingContext& context) {
  return kernel_benefit_sums<1>(
      queued.scored, {context.now + context.head_of_line_estimate})[0];
}

/// EB_m and EB'_m (eq. 3 + 8) in one pass, the inputs of the PC/EBPC
/// scores.
struct BenefitPair {
  double immediate = 0.0;  // EB_m
  double postponed = 0.0;  // EB'_m
};

inline BenefitPair kernel_benefit_pair(const QueuedMessage& queued,
                                       const SchedulingContext& context) {
  const std::array<double, 2> sums = kernel_benefit_sums<2>(
      queued.scored,
      {context.now, context.now + context.head_of_line_estimate});
  return {sums[0], sums[1]};
}

/// Lower-bound benefit from the precomputed indicator constants.
inline double kernel_lower_bound_benefit(const QueuedMessage& queued,
                                         const SchedulingContext& context) {
  double total = 0.0;
  for (const ScoredTarget& st : queued.scored) {
    if (context.now <= st.lb_indicator_const) total += st.price;
  }
  return total;
}

/// Mean remaining lifetime across deadline-bounded targets, O(1) from the
/// expiry aggregates.
inline TimeMs kernel_mean_remaining_lifetime(const QueuedMessage& queued,
                                             TimeMs now) {
  if (queued.bounded_targets == 0) return kNoDeadline;
  return queued.expiry_sum / static_cast<double>(queued.bounded_targets) - now;
}

}  // namespace bdps
