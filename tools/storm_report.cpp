// Fault-storm SLA report for BENCH_pr6.json.
//
// Runs one overlay + workload through a set of fault scenarios (calm
// baseline, single link outage, region storm, region storm with
// incremental SPT repair) under each scheduling strategy, grades every
// run with the windowed SLA tracker (stats/sla.h) and prints a text
// table plus a JSON document:
//
//   * delivery rate / earning — the run's aggregate outcome,
//   * worst-window hit-rate and max purge fraction — the storm's depth,
//   * max p99 queue residence — how long copies sat behind dead links,
//   * time-to-recover — the breach span at the 95% hit-rate floor,
//   * fault batches applied and routing rows their repair rewrote.
//
// Exits 1 when a storm did not take effect: a scenario with a fault plan
// applied no batch, or a repair scenario rewrote no routing row.
//
//   ./build/storm_report [brokers=20] [duration_s=120] [rate=30]
//                        [seed=31] [window_s=5]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "experiment/paper.h"
#include "experiment/sweep.h"
#include "stats/series.h"

namespace {

using namespace bdps;

struct Scenario {
  std::string name;
  bool repair = false;
  FaultPlan faults;
  std::vector<WorkloadConfig::PublishBurst> bursts;
};

struct Graded {
  SlaRun run;
  double worst_hit_rate = 1.0;
  double max_purge_fraction = 0.0;
  TimeMs max_p99_residence = 0.0;
};

Graded grade(const SimConfig& config, TimeMs window_ms) {
  Graded graded;
  graded.run = run_with_sla(config, window_ms);
  for (const SlaWindow& window : graded.run.windows) {
    if (!window.active()) continue;
    graded.worst_hit_rate = std::min(graded.worst_hit_rate, window.hit_rate);
    graded.max_purge_fraction =
        std::max(graded.max_purge_fraction, window.purge_fraction);
    graded.max_p99_residence =
        std::max(graded.max_p99_residence, window.p99_residence_ms);
  }
  return graded;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t brokers = 20;
  double duration_s = 120.0;
  double rate_per_min = 30.0;
  std::uint64_t seed = 31;
  double window_s = 5.0;
  if (argc > 1) brokers = static_cast<std::size_t>(std::atoll(argv[1]));
  if (argc > 2) duration_s = std::atof(argv[2]);
  if (argc > 3) rate_per_min = std::atof(argv[3]);
  if (argc > 4) seed = static_cast<std::uint64_t>(std::atoll(argv[4]));
  if (argc > 5) window_s = std::atof(argv[5]);

  const std::vector<StrategyKind> strategies = {
      StrategyKind::kEb, StrategyKind::kPc, StrategyKind::kEbpc,
      StrategyKind::kLowerBound};

  std::vector<Scenario> scenarios;
  scenarios.push_back(Scenario{"calm", false, {}, {}});
  {
    Scenario s{"link_outage", false, {}, {}};
    s.faults.link_outages.push_back(
        LinkOutage{seconds(0.2 * duration_s), seconds(0.45 * duration_s),
                   0, 1});
    scenarios.push_back(std::move(s));
  }
  {
    RegionStorm storm;
    storm.at = seconds(0.25 * duration_s);
    storm.epicenter = static_cast<BrokerId>(brokers / 3);
    storm.radius = 2;
    storm.recovery_delay = seconds(0.2 * duration_s);
    storm.recovery_jitter = seconds(0.05 * duration_s);
    storm.kill_brokers = true;
    Scenario s{"region_storm", false, {}, {}};
    s.faults.storms.push_back(storm);
    scenarios.push_back(s);
    s.name = "region_storm_repair";
    s.repair = true;
    scenarios.push_back(std::move(s));
  }
  {
    // Flash crowd riding on a link flap: queue pressure while capacity
    // blinks — the regime where the pick strategies separate.
    Scenario s{"flash_crowd_flap", false, {}, {}};
    s.bursts.push_back(WorkloadConfig::PublishBurst{
        seconds(0.3 * duration_s), seconds(0.25 * duration_s), 8.0});
    s.faults.flaps.push_back(LinkFlap{0, 1, seconds(0.3 * duration_s),
                                      seconds(0.1 * duration_s),
                                      seconds(0.05 * duration_s), 3});
    scenarios.push_back(std::move(s));
  }

  TextTable table({"scenario", "strategy", "delivery_rate", "earning",
                   "purged", "lost", "worst_hit", "max_purge_frac",
                   "max_p99_ms", "ttr_s", "batches", "repaired"});
  int status = 0;
  std::string json = "{\n  \"window_ms\": " +
                     TextTable::fixed(seconds(window_s), 0) +
                     ",\n  \"scenarios\": [\n";
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    const Scenario& scenario = scenarios[si];
    json += "    {\"name\": \"" + scenario.name + "\", \"strategies\": [\n";
    for (std::size_t ki = 0; ki < strategies.size(); ++ki) {
      const StrategyKind kind = strategies[ki];
      SimConfig config =
          paper_base_config(ScenarioKind::kSsd, rate_per_min, kind, seed);
      config.workload.duration = seconds(duration_s);
      config.topology = TopologyKind::kRandomMesh;
      config.broker_count = brokers;
      config.extra_edges = brokers;  // Detours for repair to exploit.
      // Fast links: transit sits inside the SSD deadlines, so degradation
      // is attributable to the faults, not the calm backlog.
      config.link_mean_lo_ms_per_kb = 2.0;
      config.link_mean_hi_ms_per_kb = 4.0;
      config.link_stddev_ms_per_kb = 1.0;
      config.repair_routing = scenario.repair;
      config.faults = scenario.faults;
      config.workload.bursts = scenario.bursts;

      const Graded graded = grade(config, seconds(window_s));
      const SimResult& r = graded.run.result;
      table.add_row_values(
          scenario.name, strategy_name(kind),
          TextTable::fixed(r.delivery_rate, 4), TextTable::fixed(r.earning, 1),
          r.purged_expired + r.purged_hopeless, r.lost_copies,
          TextTable::fixed(graded.worst_hit_rate, 3),
          TextTable::fixed(graded.max_purge_fraction, 3),
          TextTable::fixed(graded.max_p99_residence, 0),
          TextTable::fixed(graded.run.time_to_recover / 1000.0, 1),
          r.fault_batches, r.repaired_rows);
      if (!scenario.faults.empty() && r.fault_batches == 0) {
        std::cerr << "FATAL: " << scenario.name << "/" << strategy_name(kind)
                  << " applied no fault batch\n";
        status = 1;
      }
      if (scenario.repair && r.repaired_rows == 0) {
        std::cerr << "FATAL: " << scenario.name << "/" << strategy_name(kind)
                  << " repaired no routing row\n";
        status = 1;
      }

      json += "      {\"strategy\": \"" + strategy_name(kind) + "\"";
      json += ", \"delivery_rate\": " + TextTable::fixed(r.delivery_rate, 6);
      json += ", \"earning\": " + TextTable::fixed(r.earning, 2);
      json += ", \"valid_deliveries\": " + std::to_string(r.valid_deliveries);
      json += ", \"deliveries\": " + std::to_string(r.deliveries);
      json +=
          ", \"purged\": " + std::to_string(r.purged_expired +
                                            r.purged_hopeless);
      json += ", \"lost\": " + std::to_string(r.lost_copies);
      json += ", \"worst_hit_rate\": " +
              TextTable::fixed(graded.worst_hit_rate, 4);
      json += ", \"max_purge_fraction\": " +
              TextTable::fixed(graded.max_purge_fraction, 4);
      json += ", \"max_p99_residence_ms\": " +
              TextTable::fixed(graded.max_p99_residence, 1);
      json += ", \"time_to_recover_ms\": " +
              TextTable::fixed(graded.run.time_to_recover, 0);
      json += ", \"fault_batches\": " + std::to_string(r.fault_batches);
      json += ", \"repaired_rows\": " + std::to_string(r.repaired_rows);
      json += "}";
      json += ki + 1 < strategies.size() ? ",\n" : "\n";
    }
    json += "    ]}";
    json += si + 1 < scenarios.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  table.print(std::cout);
  std::cout << "\n" << json;
  return status;
}
