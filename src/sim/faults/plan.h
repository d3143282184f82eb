// Fault-injection plans: link/broker churn as down→up timelines.
//
// A LinkFailure (SimConfig::link_failures) kills a link once and forever;
// a production overlay instead sees *windows* of unavailability — a
// backhoe cuts a region for minutes, a flaky transceiver flaps, a broker
// crashes and restarts with empty queues.  A FaultPlan describes such a
// timeline either explicitly (LinkOutage / BrokerOutage windows) or
// through generators (RegionStorm: a seeded BFS-ball kill with recovery
// delays; LinkFlap: a periodic square wave).  `materialize_faults` expands
// the generators, validates every reference against the overlay graph and
// normalizes overlapping windows into disjoint ones; the result feeds
// sim/faults/timeline.h, which compiles it, together with any terminal
// link kills, into the per-instant batches Simulator replays bitwise.
// Kills stay out of FaultPlan and its text form: they drop queued copies,
// which the live runtime cannot honour.
#pragma once

#include <string>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "topology/graph.h"

namespace bdps {

/// One down→up window on an undirected link (both directed edges).
struct LinkOutage {
  TimeMs down_at = 0.0;
  TimeMs up_at = kNoDeadline;  // kNoDeadline: the link never recovers.
  BrokerId a = kNoBroker;
  BrokerId b = kNoBroker;
};

/// One crash→restart window on a broker.  While down the broker's queues
/// are dropped, arrivals are lost and every incident link is unusable;
/// restart brings it back with empty queues (routing state is static
/// configuration and survives).
struct BrokerOutage {
  TimeMs down_at = 0.0;
  TimeMs up_at = kNoDeadline;
  BrokerId broker = kNoBroker;
};

/// Correlated region storm: every link whose *both* endpoints lie within
/// `radius` hops of the epicenter goes down at `at` and recovers after
/// `recovery_delay` plus a per-link uniform jitter in [0, recovery_jitter).
/// With `kill_brokers`, brokers strictly inside the ball (distance
/// <= radius - 1) additionally crash for the same window (own jitter).
struct RegionStorm {
  TimeMs at = 0.0;
  BrokerId epicenter = 0;
  int radius = 1;
  TimeMs recovery_delay = seconds(30.0);
  TimeMs recovery_jitter = 0.0;
  bool kill_brokers = false;
};

/// Periodic link flap: `count` windows of `down_for`, starting `period`
/// apart from `first_down_at`.
struct LinkFlap {
  BrokerId a = kNoBroker;
  BrokerId b = kNoBroker;
  TimeMs first_down_at = 0.0;
  TimeMs period = seconds(10.0);
  TimeMs down_for = seconds(1.0);
  int count = 1;
};

struct FaultPlan {
  std::vector<LinkOutage> link_outages;
  std::vector<BrokerOutage> broker_outages;
  std::vector<RegionStorm> storms;
  std::vector<LinkFlap> flaps;

  bool empty() const {
    return link_outages.empty() && broker_outages.empty() && storms.empty() &&
           flaps.empty();
  }
};

/// Expands every generator into explicit windows (storm jitter consumes
/// `rng` in a fixed order: ball links by canonical (min, max) endpoint
/// pair, then ball brokers ascending), validates all references against
/// `graph` (nonexistent links/brokers, inverted or negative windows throw
/// std::invalid_argument) and merges overlapping windows per link/broker.
/// The result holds only sorted, disjoint link_outages (a < b) and
/// broker_outages.
FaultPlan materialize_faults(const FaultPlan& plan, const Graph& graph,
                             Rng& rng);

/// Serializes a plan as newline-separated directives:
///   link <a> <b> <down_at> <up_at|inf>
///   broker <id> <down_at> <up_at|inf>
///   storm <at> <epicenter> <radius> <recovery_delay> <jitter> <kill:0|1>
///   flap <a> <b> <first_down_at> <period> <down_for> <count>
/// Doubles are written in hexfloat so a round trip is bitwise.
std::string format_fault_plan(const FaultPlan& plan);

/// Parses the format_fault_plan text form ('#' starts a comment, blank
/// lines ignored).  Malformed directives throw std::invalid_argument.
FaultPlan parse_fault_plan(const std::string& text);

}  // namespace bdps
