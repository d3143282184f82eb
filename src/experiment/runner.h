// One-shot simulation runner: SimConfig in, SimResult out.
#pragma once

#include <memory>

#include "experiment/config.h"
#include "sim/simulator.h"

namespace bdps {

/// Aggregated outcome of one simulation run (value type; safe to copy
/// across threads).
struct SimResult {
  std::size_t published = 0;
  /// "Message number" of §6.1: receptions by all brokers.
  std::size_t receptions = 0;
  std::size_t deliveries = 0;
  std::size_t valid_deliveries = 0;
  /// sum(ts_i): (message, interested subscriber) pairs offered.
  std::size_t total_interested = 0;
  double delivery_rate = 0.0;      // eq. (1)
  double earning = 0.0;            // eq. (2)
  double potential_earning = 0.0;  // Oracle ceiling of eq. (2).
  std::size_t purged_expired = 0;
  std::size_t purged_hopeless = 0;
  /// Copies destroyed by faults: killed links and crashed brokers.
  std::size_t lost_copies = 0;
  /// Deepest input queue observed (serialize_processing only; else 0).
  std::size_t max_input_queue = 0;
  /// Fault batches applied, and routing rows their repair rewrote.  Link
  /// kills (link_failures, random_link_failures) count too: each distinct
  /// kill instant is a batch, merged with any plan batch at that instant.
  std::size_t fault_batches = 0;
  std::size_t repaired_rows = 0;
  double mean_valid_delay_ms = 0.0;
  TimeMs end_time = 0.0;
};

/// Builds topology + workload + fabric from `config` and runs to
/// completion.  Deterministic in config.seed.
SimResult run_simulation(const SimConfig& config);

/// Same, with an event trace attached for the whole run (nullptr = none).
/// The stream is deterministic in config.seed; stats/sla.h consumes it to
/// grade per-scenario SLA series.
SimResult run_simulation(const SimConfig& config, TraceSink* trace);

/// The config's compiled fault timeline in run_simulation's stream order,
/// drawn from `streams` after the four fixed streams: the random-kill
/// stream first (only when random kills are asked for), then the fault
/// stream (only when the plan is non-empty).  nullptr when there is
/// neither.  `with_kills = false` leaves the kills out of the timeline (the
/// live runtime has no kill rule) but still draws their stream, so the
/// plan's batches are the simulator's.
std::shared_ptr<const CompiledFaults> compile_run_faults(
    const SimConfig& config, const Graph& graph, RunStreams& streams,
    bool with_kills = true);

}  // namespace bdps
