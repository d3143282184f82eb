// SLA grading of a simulation run: fixed-window service-level series.
//
// A fault storm does not show up in the run's aggregate totals — a 2%
// lifetime purge fraction can hide a 40-second window where *nothing*
// met its deadline.  SlaTracker is a TraceSink that buckets the event
// stream into fixed windows and grades each one:
//
//   * deadline hit-rate   — valid deliveries / deliveries,
//   * purge fraction      — purged / (delivered + purged + lost) copies,
//   * p99 queue residence — kEnqueue -> kSendStart (or kPurge/kLoss)
//     per copy, resolved into the window of the departure instant,
//   * time-to-recover     — the span of the breach region: from the start
//     of the first degraded window to the end of the last one.
//
// The trace stream is deterministic in the run's seed, so the graded
// series replays bitwise.  experiment/sweep.h wires
// it behind run_with_sla; tools/storm_report emits the per-scenario JSON.
#pragma once

#include <unordered_map>
#include <vector>

#include "trace/trace.h"

namespace bdps {

/// One graded window of the run ([start, start + width)).
struct SlaWindow {
  TimeMs start = 0.0;
  TimeMs width = 0.0;
  std::size_t deliveries = 0;
  std::size_t valid_deliveries = 0;
  std::size_t purged = 0;
  std::size_t lost = 0;
  /// Copies whose queue residence ended in this window.
  std::size_t residence_samples = 0;
  /// valid / deliveries; 1.0 for a window with no deliveries (grading
  /// uses `active()` to tell silence from health).
  double hit_rate = 1.0;
  /// purged / (deliveries + purged + lost); 0.0 when nothing resolved.
  double purge_fraction = 0.0;
  TimeMs p99_residence_ms = 0.0;

  /// Whether any copy resolved (delivered, purged or lost) in the window.
  bool active() const { return deliveries + purged + lost > 0; }
};

class SlaTracker final : public TraceSink {
 public:
  /// `window_ms` is the grading resolution; storms shorter than a window
  /// blur into their neighbours.
  explicit SlaTracker(TimeMs window_ms = 10000.0);

  void record(const TraceEvent& event) override;

  /// The graded series, one entry per window from time 0 through the last
  /// recorded event (contiguous; quiet windows are present and inactive).
  std::vector<SlaWindow> series() const;

  /// Breach span of `series`: an active window is degraded when its
  /// hit-rate falls below `hit_rate_floor` or its purge fraction exceeds
  /// `purge_ceiling`.  Returns last degraded window end - first degraded
  /// window start, or 0 when no window is degraded.
  static TimeMs time_to_recover(const std::vector<SlaWindow>& series,
                                double hit_rate_floor = 0.95,
                                double purge_ceiling = 0.05);

 private:
  struct Bucket {
    std::size_t deliveries = 0;
    std::size_t valid_deliveries = 0;
    std::size_t purged = 0;
    std::size_t lost = 0;
    std::vector<TimeMs> residences;
  };

  /// Copy key for the enqueue -> departure residence pairing.  Multipath
  /// dedup guarantees at most one live copy per (message, queue) at a
  /// time, so the triple is unique among pending copies.
  struct CopyKey {
    MessageId message = -1;
    BrokerId broker = kNoBroker;
    BrokerId neighbor = kNoBroker;
    bool operator==(const CopyKey& o) const {
      return message == o.message && broker == o.broker &&
             neighbor == o.neighbor;
    }
  };
  struct CopyKeyHash {
    std::size_t operator()(const CopyKey& k) const {
      std::size_t h = std::hash<long long>()(k.message);
      h = h * 1315423911u ^ std::hash<int>()(static_cast<int>(k.broker));
      h = h * 1315423911u ^ std::hash<int>()(static_cast<int>(k.neighbor));
      return h;
    }
  };

  Bucket& bucket_at(TimeMs time);

  TimeMs window_ms_;
  std::vector<Bucket> buckets_;
  std::unordered_map<CopyKey, TimeMs, CopyKeyHash> pending_;
};

}  // namespace bdps
