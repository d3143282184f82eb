#include "scheduling/kernel.h"

namespace bdps {

ScoredTarget make_scored_target(const SubscriptionEntry& entry,
                                const Message& message,
                                TimeMs processing_delay,
                                double lb_confidence_z) {
  const TimeMs deadline = entry.effective_deadline(message);
  const double size = message.size_kb();
  const double size_sigma = size * entry.path.stddev();

  ScoredTarget st;
  st.expiry = deadline + message.publish_time();
  st.slack_const = st.expiry - entry.path.hop_brokers * processing_delay -
                   size * entry.path.mean_ms_per_kb;
  st.inv_size_sigma = size_sigma > 0.0
                          ? 1.0 / size_sigma
                          : std::numeric_limits<double>::infinity();
  st.price = entry.subscription->price;
  st.lb_indicator_const = st.slack_const - lb_confidence_z * size_sigma;
  return st;
}

void precompute_scores(QueuedMessage& queued, TimeMs processing_delay) {
  queued.scored.clear();
  queued.scored.reserve(queued.targets.size());
  queued.expiry_sum = 0.0;
  queued.bounded_targets = 0;
  for (const SubscriptionEntry* entry : queued.targets) {
    queued.scored.push_back(
        make_scored_target(*entry, *queued.message, processing_delay));
    const double expiry = queued.scored.back().expiry;
    if (expiry != kNoDeadline) {
      queued.expiry_sum += expiry;
      ++queued.bounded_targets;
    }
  }
}

}  // namespace bdps
