// Fundamental identifier and time types shared by all bdps subsystems.
//
// Simulation time is a double counting *milliseconds* since the start of the
// run.  All delay-model quantities from the paper (processing delay PD,
// per-KB transmission rates, deadlines) are expressed in the same unit so the
// scheduling math in src/scheduling needs no conversions.
#pragma once

#include <cstdint>
#include <limits>

namespace bdps {

/// Milliseconds since simulation start (or a duration in milliseconds).
using TimeMs = double;

/// Identifies a broker node in the overlay graph; dense in [0, n).
using BrokerId = std::int32_t;

/// Identifies an information publisher.
using PublisherId = std::int32_t;

/// Identifies an information subscriber; dense in [0, n_subscribers).
using SubscriberId = std::int32_t;

/// Identifies a published message; unique per simulation run.
using MessageId = std::int64_t;

/// Sentinel for "no broker" (e.g. the next hop of a locally-delivered entry).
inline constexpr BrokerId kNoBroker = -1;

/// Index of a directed edge within a Graph's edge array; dense in [0, m).
/// The canonical link address: per-link state across the simulator, broker
/// and live runtime is held in flat arrays indexed by EdgeId (see
/// topology/edge_map.h), never in maps keyed on (BrokerId, BrokerId).
using EdgeId = std::int32_t;
inline constexpr EdgeId kNoEdge = -1;

/// A directed link named both ways: by downstream neighbour and by edge id,
/// so consumers can index flat per-edge state without re-resolving the
/// link (Broker binds its queue slots from these).
struct LinkRef {
  BrokerId neighbor = kNoBroker;
  EdgeId edge = kNoEdge;
};

/// Sentinel for "no deadline specified".
inline constexpr TimeMs kNoDeadline = std::numeric_limits<TimeMs>::infinity();

/// Convenience conversions; the paper quotes parameters in seconds/minutes.
constexpr TimeMs seconds(double s) { return s * 1000.0; }
constexpr TimeMs minutes(double m) { return m * 60'000.0; }
constexpr TimeMs hours(double h) { return h * 3'600'000.0; }

/// One injected link failure (undirected: both directions die at `at`).
/// Consumed by the simulator's failure injection; defined here so
/// experiment configs can carry failure plans without depending on the
/// simulator headers.
struct LinkFailure {
  TimeMs at = 0.0;
  BrokerId a = kNoBroker;
  BrokerId b = kNoBroker;
};

}  // namespace bdps
