// Invalid-message detection (§5.4).
//
// Before each send, a broker removes from the output queue:
//   * messages whose deadline has already passed for every target, and
//   * messages for which success(s_i, m) < epsilon for every target
//     (eq. 11; the paper uses epsilon = 0.05%).
// The first rule is the epsilon -> 0 limit of the second; it is kept
// separate so the "purge hopeless messages" optimisation can be ablated
// while still discarding outright-expired traffic.
#pragma once

#include <cstddef>
#include <vector>

#include "scheduling/scheduler.h"

namespace bdps {

struct PurgePolicy {
  /// epsilon of eq. (11); 0 disables the probabilistic purge.
  double epsilon = 0.0005;
  /// Whether to drop messages that are already past every target deadline.
  bool drop_expired = true;
};

struct PurgeStats {
  std::size_t expired = 0;   // Dropped because all deadlines passed.
  std::size_t hopeless = 0;  // Dropped by the eq. (11) threshold.

  PurgeStats& operator+=(const PurgeStats& other) {
    expired += other.expired;
    hopeless += other.hopeless;
    return *this;
  }
};

/// Why (or whether) one queued message should be deleted right now.
enum class PurgeVerdict { kKeep, kExpired, kHopeless };

/// Applies both §5.4 rules to one scored message (its kernel rows).
PurgeVerdict classify_purge(const QueuedMessage& queued,
                            const SchedulingContext& context,
                            const PurgePolicy& policy);

/// The z of every keep horizon under `policy`: max(Phi^-1(epsilon), -8)
/// plus a 1e-3 margin that covers the quantile's approximation error and
/// the rounding of scored_success, so a target whose success argument
/// (slack_const - now) * inv_size_sigma is at least z has success >= epsilon.
/// +inf when the rule cannot be bounded that way (epsilon within 1e-9 of 1
/// or above), which makes every horizon -inf: such rows are classified at
/// every pick.  Unused when epsilon is 0.
double keep_horizon_z(const PurgePolicy& policy);

/// A conservative keep-until instant of one scored row (eq. 11 with the PD
/// its kernel rows were folded with): classify_purge(queued, {t, any FT},
/// policy) is kKeep for every t < the result.  It is the minimum of the
/// expiry rule's horizon (the row's latest target expiry) and the eq. (11)
/// rule's (the latest target instant slack_const - z / inv_size_sigma, a
/// few ulps early; slack_const itself on a deterministic path), each +inf
/// when its rule is off; +inf for an empty target list, never NaN.  A
/// row's success terms only fall as time advances, so the instant is fixed
/// once the row is scored: OutputQueue computes it once per row and
/// classifies a row only after its instant has passed.  `z` is
/// keep_horizon_z(policy).
TimeMs keep_horizon(const QueuedMessage& queued, const PurgePolicy& policy,
                    double z);

/// True when eq. (11) says the queued message should be deleted.
bool should_purge(const QueuedMessage& queued, const SchedulingContext& context,
                  const PurgePolicy& policy);

/// Removes purgeable messages in place (stable order) and reports counts.
/// When `purged_ids` is non-null the ids of deleted messages are appended
/// (trace support).
PurgeStats purge_queue(std::vector<QueuedMessage>& queue,
                       const SchedulingContext& context,
                       const PurgePolicy& policy,
                       std::vector<MessageId>* purged_ids = nullptr);

}  // namespace bdps
