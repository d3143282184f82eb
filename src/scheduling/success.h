// Delivery-success probability math (the heart of §5).
//
// For a message m queued at a broker and a subscription-table entry with
// remaining path p = (NN_p, mu_p, sigma_p^2):
//
//   fdl(s, m)      = NN_p * PD + size(m) * TR_p                     (eq. 4)
//   success(s, m)  = P( hdl(m) + fdl(s, m) <= adl(s) )              (eq. 5)
//                  = Phi( (adl - hdl - NN_p*PD - size*mu_p)
//                         / (size * sigma_p) )
//
// and the "send second" variant adds the head-of-line transmission estimate
// FT to fdl (eq. 6-7).  These functions are the readable reference form of
// the math; the pick/purge hot paths evaluate the same formulas through the
// precomputed kernel (scheduling/kernel.h), which folds the time-invariant
// parts per (message, target) pair at enqueue time.  The two are held
// together by tests/scheduling/kernel_property_test.cpp.
#pragma once

#include "common/math.h"
#include "common/types.h"
#include "message/message.h"
#include "routing/subscription.h"

namespace bdps {

/// What the §5 formulas need, beyond a copy's kernel rows, to score it on
/// one output queue at one instant.  The broker's processing delay PD is
/// not here: it is a constant of the queue, folded into every row once,
/// when the copy is enqueued (scheduling/kernel.h).
struct SchedulingContext {
  /// Current simulation time (defines hdl(m) = now - publish_time).
  TimeMs now = 0.0;
  /// FT (eq. 6): estimated time to send the head-of-line message on this
  /// queue's link = running average message size * link mean rate.
  TimeMs head_of_line_estimate = 0.0;
};

/// Mean of fdl(s, m): NN_p * PD + size(m) * mu_p.
TimeMs expected_forward_delay(const SubscriptionEntry& entry,
                              const Message& message, TimeMs processing_delay);

/// success(s, m) of eq. (5); `extra_delay` realises eq. (7)'s FT shift
/// (0 for the plain eq. 5 form).
double success_probability(const SubscriptionEntry& entry,
                           const Message& message, TimeMs now,
                           TimeMs processing_delay, TimeMs extra_delay = 0.0);

/// EB contribution of a single (message, entry) pair:
/// success(s, m) * price(s).
double expected_benefit_term(const SubscriptionEntry& entry,
                             const Message& message, TimeMs now,
                             TimeMs processing_delay, TimeMs extra_delay = 0.0);

/// Remaining lifetime adl(s) - hdl(m) of one pair (may be negative once the
/// deadline has passed); used by the RL baseline and the purge rule.
TimeMs remaining_lifetime(const SubscriptionEntry& entry,
                          const Message& message, TimeMs now);

/// Lower-bound delivery indicator: 1 when the deadline holds even if the
/// path only sustains its pessimistic "guaranteed" rate
/// mu_p + confidence_z * sigma_p, else 0.  This is the §2 comparison point:
/// OverQoS-style systems plan against a bandwidth value that holds with
/// high probability instead of using the full distribution; the LB
/// strategy is built from this indicator.
double lower_bound_success(const SubscriptionEntry& entry,
                           const Message& message, TimeMs now,
                           TimeMs processing_delay,
                           double confidence_z = 2.0);

}  // namespace bdps
