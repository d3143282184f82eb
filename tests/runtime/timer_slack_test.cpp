#include "runtime/timer_slack.h"

#include <gtest/gtest.h>
#include <sys/prctl.h>

#include <set>
#include <string>

#include "experiment/live.h"
#include "runtime/live_network.h"
#include "runtime/reactor.h"

namespace bdps {
namespace {

/// A slack no thread starts with, so "given back" cannot pass by chance.
constexpr long kCallerSlackNs = 12345;

/// Gives the test thread kCallerSlackNs for its scope, then the old value.
class CallerSlack {
 public:
  CallerSlack() : previous_(timer_slack_ns()) {
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(kCallerSlackNs), 0,
          0, 0);
  }
  ~CallerSlack() {
    prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(previous_), 0, 0, 0);
  }

 private:
  long previous_;
};

TEST(TimerSlack, ScopeHoldsOneNanosecondAndGivesTheOldValueBack) {
  const CallerSlack caller;
  ASSERT_EQ(timer_slack_ns(), kCallerSlackNs);
  {
    const ScopedTimerSlack exact;
    EXPECT_EQ(timer_slack_ns(), ScopedTimerSlack::kExactNs);
    {
      const ScopedTimerSlack nested;
      EXPECT_EQ(timer_slack_ns(), ScopedTimerSlack::kExactNs);
    }
    EXPECT_EQ(timer_slack_ns(), ScopedTimerSlack::kExactNs);
  }
  EXPECT_EQ(timer_slack_ns(), kCallerSlackNs);
}

TEST(TimerSlack, ClockSleepGivesTheCallersSlackBack) {
  const CallerSlack caller;
  LiveClock clock(1000.0);
  clock.start();
  clock.sleep_for(2.0);  // 2 us of real time.
  EXPECT_EQ(timer_slack_ns(), kCallerSlackNs);
}

TEST(TimerSlack, LiveScheduleGivesTheCallersSlackBack) {
  LiveRunConfig config;
  config.sim.seed = 7;
  config.sim.topology = TopologyKind::kRandomMesh;
  config.sim.broker_count = 6;
  config.sim.extra_edges = 3;
  config.sim.publisher_count = 1;
  config.sim.subscriber_count = 6;
  config.sim.workload.duration = seconds(10.0);
  config.sim.workload.publishing_rate_per_min = 60.0;
  config.workers = 2;
  config.speedup = 3000.0;
  const CallerSlack caller;
  const LiveRunResult result = run_live(config);  // Paces on this thread.
  EXPECT_GT(result.published, 0u);
  EXPECT_EQ(timer_slack_ns(), kCallerSlackNs);
}

TEST(TimerSlack, ReactorWorkersRunWithOneNanosecondSlack) {
  Topology topo;
  topo.graph.resize(3);
  topo.graph.add_bidirectional(0, 1, LinkParams{2.0, 0.2});
  topo.graph.add_bidirectional(1, 2, LinkParams{2.0, 0.2});
  topo.publisher_edges = {0};
  topo.subscriber_homes = {2};
  Subscription sub;
  sub.home = 2;
  const RoutingFabric fabric(topo, {sub});
  const auto strategy = make_strategy(StrategyKind::kEb);
  LiveOptions options;
  options.workers = 2;
  // The test thread's own slack must not pass for the workers': they are
  // spawned from it.
  const CallerSlack caller;
  LiveNetwork net(&topo, &fabric, strategy.get(), options);
  ASSERT_EQ(net.worker_count(), 2u);
  net.start();  // Names every worker before it returns.
  const std::vector<ThreadTimerSlack> seen =
      thread_timer_slacks(kWorkerThreadPrefix);
  net.stop();  // Every worker has now run, so each recorded its slack.

  EXPECT_EQ(net.worker_timer_slacks(),
            std::vector<long>(2, ScopedTimerSlack::kExactNs));
  std::set<std::string> names;
  for (const ThreadTimerSlack& worker : seen) {
    names.insert(worker.name);
    // -1: reading another thread's slack needs CAP_SYS_NICE.
    if (worker.slack_ns >= 0) {
      EXPECT_EQ(worker.slack_ns, ScopedTimerSlack::kExactNs) << worker.name;
    }
  }
  EXPECT_EQ(names, (std::set<std::string>{"bdps-w0", "bdps-w1"}));
  EXPECT_EQ(timer_slack_ns(), kCallerSlackNs);
}

}  // namespace
}  // namespace bdps
