// Complete description of one simulation run.
//
// A SimConfig captures everything needed to reproduce a run bit-for-bit:
// topology, workload, strategy, purge policy and the seed.  The runner
// (experiment/runner.h) turns one into a SimResult; the sweep helpers fan
// batches of them across a thread pool.
#pragma once

#include <cstdint>

#include "scheduling/purge.h"
#include "scheduling/scheduler.h"
#include "sim/faults/plan.h"
#include "topology/builders.h"
#include "workload/scenario.h"

namespace bdps {

enum class TopologyKind {
  kPaper,
  kAcyclic,
  kRandomMesh,
  kDumbbell,
  kRing,
  kGrid,
  kScaleFree,
};

std::string topology_name(TopologyKind kind);

struct SimConfig {
  std::uint64_t seed = 1;

  // ---- Strategy under test ----
  StrategyKind strategy = StrategyKind::kEb;
  double ebpc_weight = 0.5;  // r of eq. (10); only used by kEbpc.
  PurgePolicy purge;         // Defaults to the paper's eps = 0.05%.

  // ---- Delay model ----
  TimeMs processing_delay = 2.0;  // PD (§6.1).

  // ---- Workload ----
  WorkloadConfig workload;

  // ---- Topology ----
  TopologyKind topology = TopologyKind::kPaper;
  PaperTopologyConfig paper_topology;  // Used when topology == kPaper.
  // Generic knobs for the other builders.
  std::size_t broker_count = 32;
  std::size_t publisher_count = 4;
  std::size_t subscriber_count = 160;
  std::size_t extra_edges = 8;  // Random mesh only.
  std::size_t grid_rows = 4;    // Grid/torus only.
  std::size_t grid_cols = 8;
  bool grid_torus = false;
  std::size_t scale_free_edges_per_node = 2;  // Scale-free only.
  double link_mean_lo_ms_per_kb = 50.0;
  double link_mean_hi_ms_per_kb = 100.0;
  double link_stddev_ms_per_kb = 20.0;

  /// Multiplicative error injected into the link parameters brokers
  /// *believe* (routing tables, success probabilities, FT) while sends
  /// still sample the true links: mean' = mean * (1 + U(-f, f)).  0 = exact
  /// knowledge (the paper's setting).
  double belief_noise_frac = 0.0;

  /// Brokers re-estimate per-link (mu, sigma) online from completed sends
  /// (§3.2's "tools of network measurement"); combined with
  /// belief_noise_frac this shows recovery from wrong initial beliefs.
  bool online_estimation = false;

  /// Serialize each broker's processing stage (one message per PD); checks
  /// rather than assumes the paper's empty-input-queue footnote.
  bool serialize_processing = false;

  /// Forward over the two best next hops instead of one (the multi-path
  /// alternative of §3.3; DCP-style).  Brokers drop duplicate copies by
  /// message id, and the first delivery per subscriber counts.
  bool multipath = false;

  /// Read by nothing: broker tables are counting indexes, which do not
  /// merge covered filters.  Kept while perfbench/cpp/sim_storm.cpp
  /// assigns it.
  bool match_covering = true;

  /// Distribution family the *true* per-send rates are drawn from (the
  /// schedulers' math always assumes normal, per the paper).  Non-normal
  /// shapes stress the model-mismatch robustness.
  RateShape true_rate_shape = RateShape::kNormal;

  /// Terminal link kills (failure injection): each link dies for good at
  /// its instant, both directions.  Its in-flight copy is lost, queued and
  /// later copies toward it are dropped as losses.  Kills never reach
  /// routing repair: routing is not moved off a link killed while up, and a
  /// link killed inside (or at the end of) a `faults` outage never comes
  /// back up, so with `repair_routing` its routes stay around it for good.
  /// run_simulation compiles the kills into the fault timeline next to
  /// `faults` (as kill batches); the live runtime ignores them.
  std::vector<LinkFailure> link_failures;
  /// Convenience: additionally kill this many *random* links, at uniform
  /// times within the publish window (drawn from a dedicated RNG stream so
  /// the rest of the run is unaffected).
  std::size_t random_link_failures = 0;

  /// Fault-storm timeline (sim/faults/): link/broker down→up windows,
  /// region storms, flaps.  Generators are materialized against the built
  /// topology with a dedicated RNG stream (split only when the plan is
  /// non-empty, so fault-free runs are byte-identical).  Unlike
  /// link_failures, these outages *hold* queued copies and *recover*.
  FaultPlan faults;
  /// Repair routing state incrementally as the fault timeline cuts and
  /// restores links: affected SPT subtrees are recomputed and subscription
  /// rows re-pointed, so brokers forward around outages instead of holding
  /// copies toward them.  Only meaningful with a non-empty `faults` plan.
  bool repair_routing = false;

  /// Extra simulated time allowed past the publish window for queues to
  /// drain before the hard stop.
  TimeMs drain_grace = minutes(30.0);

  /// Event-lane count for the sharded engine (sim/parallel/): 0 (default)
  /// runs the sequential Simulator, >= 1 runs ParallelSimulator with this
  /// many shards.  Results are bitwise identical either way (the golden
  /// suite pins this), so the knob only trades wall-clock time.
  std::size_t shards = 0;
};

/// Builds the topology this config describes (consuming randomness from
/// `rng`).
Topology build_topology(Rng& rng, const SimConfig& config);

}  // namespace bdps
