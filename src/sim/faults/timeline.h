// Compiled fault timeline: the engine-facing form of a FaultPlan.
//
// Simulator and the live reactor consume faults as *batches* — every
// transition sharing one instant, applied atomically in a canonical order
// (brokers down, edges down, brokers up, edges up, edges killed; ids
// ascending) — so a storm replays bitwise from the seed.  Compilation
// folds broker outages into their incident directed edges (a crashed
// broker cuts every adjacent link both ways), merges the resulting
// per-edge windows, adds the terminal link kills (LinkFailure: the link
// dies for good and its queued copies are dropped, not held), and builds
// CSR tables of down-transition instants that answer the two doom queries
// Simulator needs:
//
//  * a send started at s completing at c is lost iff the edge has a
//    down-transition in (s, c] — the transfer was cut mid-flight even if
//    the link already recovered by c (a flap);
//  * a processing step finishing at f is lost iff its broker has a
//    down-transition in (f - PD, f] — the crash wiped the in-progress
//    message even if the broker already restarted.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/faults/plan.h"
#include "topology/graph.h"

namespace bdps {

/// Every fault transition at one instant.
struct FaultBatch {
  TimeMs at = 0.0;
  std::vector<BrokerId> brokers_down;
  std::vector<BrokerId> brokers_up;
  std::vector<EdgeId> edges_down;  // Directed edge ids, ascending.
  std::vector<EdgeId> edges_up;
  /// Directed edges killed for good, ascending: applied after the other
  /// transitions, their queues drained as losses; never repaired, never up.
  std::vector<EdgeId> edges_killed;
};

class CompiledFaults {
 public:
  CompiledFaults() = default;

  /// Compiles a *materialized* plan (see materialize_faults; generators
  /// still present throw std::invalid_argument) plus terminal link `kills`
  /// against the overlay graph.  A kill takes down both directed edges that
  /// exist (a non-adjacent pair kills nothing) at its instant; an edge's
  /// earliest kill wins and drops every recovery of that edge at or after
  /// it, so no killed edge ever reaches routing repair as up.  A kill
  /// naming a broker outside the graph throws std::invalid_argument.
  static CompiledFaults compile(const FaultPlan& plan, const Graph& graph,
                                const std::vector<LinkFailure>& kills = {});

  /// Throws std::logic_error naming the first broken invariant: batches
  /// strictly ascending in `at`; every id list ascending and unique; no
  /// killed edge in the `edges_up` of its kill batch or a later one; every
  /// doom-table row sorted.  compile() reads the doom tables off the
  /// finished batches, so each holds exactly the batches' down instants.
  /// compile() runs it in builds without NDEBUG.
  void check_invariants() const;

  bool empty() const { return batches_.empty(); }
  const std::vector<FaultBatch>& batches() const { return batches_; }

  /// True when directed edge `e` has a down-transition in (after, upto].
  bool edge_cut_between(EdgeId e, TimeMs after, TimeMs upto) const {
    return edge_downs_.cut_between(static_cast<std::size_t>(e), after, upto);
  }

  /// True when broker `b` has a down-transition in (after, upto].
  bool broker_cut_between(BrokerId b, TimeMs after, TimeMs upto) const {
    return broker_downs_.cut_between(static_cast<std::size_t>(b), after,
                                     upto);
  }

 private:
  /// CSR of down-transition instants, sorted ascending per key.
  struct DoomTable {
    std::vector<std::uint32_t> offsets;
    std::vector<TimeMs> times;

    DoomTable() = default;
    explicit DoomTable(const std::vector<std::vector<TimeMs>>& rows);
    bool cut_between(std::size_t key, TimeMs after, TimeMs upto) const;
  };

  std::vector<FaultBatch> batches_;  // Ascending in `at`.
  DoomTable edge_downs_;
  DoomTable broker_downs_;
};

}  // namespace bdps
