// Batched and replicated experiment execution.
//
// Every figure in the paper is a sweep: a list of SimConfigs differing in
// one knob (publishing rate, EBPC weight, strategy).  These helpers run
// batches across a thread pool and fold multi-seed replications into
// mean +/- standard-error summaries.
#pragma once

#include <vector>

#include "common/thread_pool.h"
#include "experiment/runner.h"
#include "stats/sla.h"
#include "stats/welford.h"

namespace bdps {

/// Runs each config (in order); uses `pool` when provided.
std::vector<SimResult> run_batch(const std::vector<SimConfig>& configs,
                                 ThreadPool* pool = nullptr);

/// One run graded against its SLA: the aggregate result plus the
/// fixed-window service series and the breach span (stats/sla.h).  The
/// fault-storm scenarios report through this — a storm is invisible in
/// lifetime totals but obvious in the windowed series.
struct SlaRun {
  SimResult result;
  std::vector<SlaWindow> windows;
  /// SlaTracker::time_to_recover of `windows` at the thresholds given to
  /// run_with_sla.
  TimeMs time_to_recover = 0.0;
};

/// run_simulation with an SlaTracker attached (deterministic in
/// config.seed).
SlaRun run_with_sla(const SimConfig& config, TimeMs window_ms = 10000.0,
                    double hit_rate_floor = 0.95,
                    double purge_ceiling = 0.05);

/// Mean +/- stderr of the headline metrics across replications.
struct ReplicatedResult {
  Welford delivery_rate;
  Welford earning;
  Welford receptions;
  Welford valid_deliveries;
  Welford mean_valid_delay_ms;
  std::size_t replications = 0;
};

/// Runs `base` under each seed (base.seed + i for i in [0, replications)).
ReplicatedResult run_replicated(SimConfig base, std::size_t replications,
                                ThreadPool* pool = nullptr);

}  // namespace bdps
