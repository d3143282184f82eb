// Brute-force oracle for RoutingFabric::match_at: every row of a broker's
// table whose subscription's filter, or any of its or_filters, matches the
// message, in ascending row order.  Disabled rows count too — repair only
// disables a row for fan-out, its subscription still matches.
#pragma once

#include <vector>

#include "routing/fabric.h"

namespace bdps {

inline std::vector<const SubscriptionEntry*> brute_force_match_at(
    const RoutingFabric& fabric, BrokerId broker, const Message& message) {
  std::vector<const SubscriptionEntry*> rows;
  for (const SubscriptionEntry& entry : fabric.table(broker).entries()) {
    const Subscription& sub = *entry.subscription;
    bool hit = sub.filter.matches(message);
    for (const Filter& f : sub.or_filters) hit = hit || f.matches(message);
    if (hit) rows.push_back(&entry);
  }
  return rows;
}

}  // namespace bdps
