// SLA grading: windowed service series over the trace stream.
#include <gtest/gtest.h>

#include "experiment/paper.h"
#include "experiment/sweep.h"
#include "stats/sla.h"

namespace bdps {
namespace {

TraceEvent event(TimeMs time, TraceEventKind kind, MessageId message,
                 BrokerId broker, BrokerId neighbor = kNoBroker,
                 bool valid = false) {
  return TraceEvent{time, kind, message, broker, neighbor, -1, valid};
}

TEST(SlaTracker, GradesHandFedWindows) {
  SlaTracker tracker(1000.0);

  // Window 0: two deliveries, one valid; a copy resident 300 ms.
  tracker.record(event(100.0, TraceEventKind::kEnqueue, 1, 0, 1));
  tracker.record(event(400.0, TraceEventKind::kSendStart, 1, 0, 1));
  tracker.record(event(500.0, TraceEventKind::kDeliver, 1, 1, kNoBroker,
                       /*valid=*/true));
  tracker.record(event(600.0, TraceEventKind::kDeliver, 1, 1, kNoBroker,
                       /*valid=*/false));
  // Window 2: a purge ending a 1700 ms residence, and a loss.
  tracker.record(event(800.0, TraceEventKind::kEnqueue, 2, 0, 1));
  tracker.record(event(2500.0, TraceEventKind::kPurge, 2, 0, 1));
  tracker.record(event(2600.0, TraceEventKind::kLoss, 3, 4, kNoBroker));

  const std::vector<SlaWindow> series = tracker.series();
  ASSERT_EQ(series.size(), 3u);

  EXPECT_EQ(series[0].deliveries, 2u);
  EXPECT_EQ(series[0].valid_deliveries, 1u);
  EXPECT_DOUBLE_EQ(series[0].hit_rate, 0.5);
  EXPECT_DOUBLE_EQ(series[0].purge_fraction, 0.0);
  EXPECT_EQ(series[0].residence_samples, 1u);
  EXPECT_DOUBLE_EQ(series[0].p99_residence_ms, 300.0);

  EXPECT_FALSE(series[1].active());
  EXPECT_DOUBLE_EQ(series[1].hit_rate, 1.0);  // Silence, not health.

  EXPECT_EQ(series[2].purged, 1u);
  EXPECT_EQ(series[2].lost, 1u);
  EXPECT_DOUBLE_EQ(series[2].purge_fraction, 0.5);
  EXPECT_DOUBLE_EQ(series[2].p99_residence_ms, 1700.0);

  // Breach span: window 0 (hit-rate 0.5) through window 2 (purge fraction
  // 0.5) — the inactive window 1 sits inside the span, not ending it.
  EXPECT_DOUBLE_EQ(SlaTracker::time_to_recover(series, 0.95, 0.05), 3000.0);
}

TEST(SlaTracker, P99PicksTheTailSample) {
  SlaTracker tracker(10000.0);
  for (int i = 1; i <= 200; ++i) {
    tracker.record(
        event(0.0, TraceEventKind::kEnqueue, i, 0, 1));
    tracker.record(
        event(static_cast<TimeMs>(i), TraceEventKind::kSendStart, i, 0, 1));
  }
  const std::vector<SlaWindow> series = tracker.series();
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].residence_samples, 200u);
  // ceil(0.99 * 200) = 198th order statistic of 1..200.
  EXPECT_DOUBLE_EQ(series[0].p99_residence_ms, 198.0);
}

TEST(SlaTracker, RejectsNonPositiveWindow) {
  EXPECT_THROW(SlaTracker(0.0), std::invalid_argument);
  EXPECT_THROW(SlaTracker(-5.0), std::invalid_argument);
}

TEST(SlaRunGrading, StormBreachesAndCalmRunDoesNot) {
  // Light load: the calm baseline must actually meet the SLA, so the
  // breach below is attributable to the storm and nothing else.
  SimConfig config =
      paper_base_config(ScenarioKind::kSsd, 30.0, StrategyKind::kEbpc, 31);
  config.workload.duration = seconds(40.0);
  config.topology = TopologyKind::kRing;
  config.broker_count = 12;
  // Fast links (0.1-0.2 s per 50 KB hop): end-to-end transit sits far
  // inside the 10-60 s SSD deadlines, so only the outage can breach.
  config.link_mean_lo_ms_per_kb = 2.0;
  config.link_mean_hi_ms_per_kb = 4.0;
  config.link_stddev_ms_per_kb = 1.0;

  const SlaRun calm = run_with_sla(config, seconds(2.0));
  ASSERT_FALSE(calm.windows.empty());
  EXPECT_DOUBLE_EQ(calm.time_to_recover, 0.0);

  // A long total outage on one ring link: every copy routed over it purges
  // or misses until recovery at t = 25 s.
  SimConfig storm_config = config;
  storm_config.faults.link_outages.push_back(
      LinkOutage{seconds(5.0), seconds(25.0), 3, 4});
  const SlaRun storm = run_with_sla(storm_config, seconds(2.0));

  EXPECT_GT(storm.time_to_recover, 0.0);
  EXPECT_GT(storm.time_to_recover, calm.time_to_recover);
  // The breach region must intersect the outage window itself.
  bool degraded_during_outage = false;
  for (const SlaWindow& w : storm.windows) {
    if (w.start + w.width <= seconds(5.0) || w.start >= seconds(25.0)) {
      continue;
    }
    if (w.active() && (w.hit_rate < 0.95 || w.purge_fraction > 0.05)) {
      degraded_during_outage = true;
    }
  }
  EXPECT_TRUE(degraded_during_outage);
}

}  // namespace
}  // namespace bdps
