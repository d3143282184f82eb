#include "scheduling/purge.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math.h"

namespace bdps {

namespace {

// Both rules read the precomputed kernel rows: expiry alone decides
// expiration, and the eq. (11) threshold is one saturated Phi per target —
// no subscription-table pointer chasing in the pre-send scan.

bool all_expired(const QueuedMessage& queued, TimeMs now) {
  for (const ScoredTarget& st : queued.scored) {
    if (!(st.expiry <= now)) return false;  // Unexpired or no deadline (inf).
  }
  return !queued.scored.empty();
}

bool all_hopeless(const QueuedMessage& queued, TimeMs now, double epsilon) {
  for (const ScoredTarget& st : queued.scored) {
    if (scored_success(st, now) >= epsilon) return false;
  }
  return !queued.scored.empty();
}

}  // namespace

PurgeVerdict classify_purge(const QueuedMessage& queued,
                            const SchedulingContext& context,
                            const PurgePolicy& policy) {
  if (policy.drop_expired && all_expired(queued, context.now)) {
    return PurgeVerdict::kExpired;
  }
  if (policy.epsilon > 0.0 &&
      all_hopeless(queued, context.now, policy.epsilon)) {
    return PurgeVerdict::kHopeless;
  }
  return PurgeVerdict::kKeep;
}

double keep_horizon_z(const PurgePolicy& policy) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Near epsilon = 1 the margin's gain in Phi falls below the rounding of
  // Phi itself, so no argument bound is safe there.
  if (!(policy.epsilon <= 1.0 - 1e-9)) return kInf;
  return std::max(normal_quantile(policy.epsilon), -8.0) + 1e-3;
}

TimeMs keep_horizon(const QueuedMessage& queued, const PurgePolicy& policy,
                    double z) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (queued.scored.empty()) return kInf;  // Neither rule fires.
  TimeMs expiry_horizon = kInf;
  if (policy.drop_expired) {
    // Not expired while some target's expiry lies ahead.
    expiry_horizon = -kInf;
    for (const ScoredTarget& st : queued.scored) {
      expiry_horizon = std::max(expiry_horizon, st.expiry);
    }
  }
  TimeMs hopeless_horizon = kInf;
  if (policy.epsilon > 0.0) {
    // Not hopeless while some target's argument is at least z.
    hopeless_horizon = -kInf;
    for (const ScoredTarget& st : queued.scored) {
      TimeMs h = st.slack_const - z / st.inv_size_sigma;
      if (std::isnan(h)) continue;  // 0/0 or inf - inf: no safe instant.
      if (std::isfinite(h)) {
        // A few ulps early: slack_const - now then rounds to at least
        // z / inv_size_sigma for every now < h.
        h -= 4.0 * std::numeric_limits<double>::epsilon() *
             std::max(std::fabs(h), std::fabs(st.slack_const));
      }
      hopeless_horizon = std::max(hopeless_horizon, h);
    }
  }
  return std::min(expiry_horizon, hopeless_horizon);
}

bool should_purge(const QueuedMessage& queued,
                  const SchedulingContext& context,
                  const PurgePolicy& policy) {
  return classify_purge(queued, context, policy) != PurgeVerdict::kKeep;
}

PurgeStats purge_queue(std::vector<QueuedMessage>& queue,
                       const SchedulingContext& context,
                       const PurgePolicy& policy,
                       std::vector<MessageId>* purged_ids) {
  PurgeStats stats;
  const auto keep_end = std::remove_if(
      queue.begin(), queue.end(), [&](const QueuedMessage& queued) {
        switch (classify_purge(queued, context, policy)) {
          case PurgeVerdict::kKeep:
            return false;
          case PurgeVerdict::kExpired:
            ++stats.expired;
            break;
          case PurgeVerdict::kHopeless:
            ++stats.hopeless;
            break;
        }
        if (purged_ids != nullptr) {
          purged_ids->push_back(queued.message->id());
        }
        return true;
      });
  queue.erase(keep_end, queue.end());
  return stats;
}

}  // namespace bdps
