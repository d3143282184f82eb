// Workload scenarios (§4.1 and §6.1).
//
// PSD — publishers stamp each message with an allowed delay drawn from
// U[10s, 30s]; subscribers give no bound and pay price 1.
// SSD — each subscription draws a (deadline, price) tier from
// {(10s, 3), (30s, 2), (60s, 1)}; messages carry no bound.
//
// The workload itself (§6.1): each of the 4 publishers emits 50 KB messages
// whose heads are {A1 = x1, A2 = x2}, x ~ U(0, 10); every subscriber filters
// with "A1 < y1 && A2 < y2", y ~ U(0, 10) — an expected selectivity of 25%.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace bdps {

// kBoth is the extension §4.1 sketches ("our work can easily be extended to
// the case where both publishers and subscribers specify their delay
// requirements"): messages carry publisher bounds *and* subscriptions carry
// (deadline, price) tiers; the tighter bound governs each pair.
enum class ScenarioKind { kPsd, kSsd, kBoth };

std::string scenario_name(ScenarioKind kind);
ScenarioKind parse_scenario(const std::string& name);

/// One (allowed delay, price) tier of the SSD scenario.
struct DelayTier {
  TimeMs allowed_delay = 0.0;
  double price = 1.0;
};

struct WorkloadConfig {
  ScenarioKind scenario = ScenarioKind::kPsd;

  /// Messages per minute per publisher (the paper's "publishing rate").
  double publishing_rate_per_min = 10.0;
  /// Poisson process (exponential gaps) when true; fixed-interval when
  /// false.  The paper says "continuously publishes ... at a certain rate";
  /// Poisson is the neutral reading and the default.
  bool poisson_arrivals = true;
  /// Test period length (paper: 2 hours).
  TimeMs duration = hours(2.0);

  /// Message payload size (paper: 50 KB).
  double message_size_kb = 50.0;

  /// Attribute space: `attribute_count` attributes named A1.. drawn from
  /// U(attribute_lo, attribute_hi); subscriptions constrain each one with
  /// "Ai < y".  Two attributes over (0,10) give the paper's 25% average
  /// selectivity.
  int attribute_count = 2;
  double attribute_lo = 0.0;
  double attribute_hi = 10.0;

  /// PSD: allowed delay ~ U[psd_delay_lo, psd_delay_hi].
  TimeMs psd_delay_lo = seconds(10.0);
  TimeMs psd_delay_hi = seconds(30.0);

  /// SSD tiers (uniformly chosen per subscription).
  std::vector<DelayTier> ssd_tiers = {
      {seconds(10.0), 3.0}, {seconds(30.0), 2.0}, {seconds(60.0), 1.0}};

  /// Subscription churn: each subscription is active for a contiguous
  /// window covering (1 - churn_fraction) of the run, with a random start
  /// phase.  0 (the paper's setting) = active throughout.
  double churn_fraction = 0.0;

  /// One flash-crowd window: during [at, at + duration) every publisher's
  /// rate is multiplied by rate_multiplier (> 1), modeled as an extra
  /// superposed Poisson process at (rate_multiplier - 1) × the base rate.
  struct PublishBurst {
    TimeMs at = 0.0;
    TimeMs duration = 0.0;
    double rate_multiplier = 1.0;
  };
  /// Flash-crowd publish bursts (fault-storm scenarios).  Empty (the
  /// default) consumes no extra randomness, so burst-free runs are
  /// byte-identical to before the knob existed.
  std::vector<PublishBurst> bursts;
};

}  // namespace bdps
