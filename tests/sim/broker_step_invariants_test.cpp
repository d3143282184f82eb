// BrokerStep::check_invariants: each quiescence clause fails on its own,
// and a copy held on a down link is quiescent.  The engines assert the
// check after a run that drained on its own (builds without NDEBUG).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "sim/broker_step.h"

namespace bdps {
namespace {

/// Line 0 - 1, one subscriber at broker 1.
struct StepRig {
  Topology topo;
  std::unique_ptr<RoutingFabric> fabric;
  std::unique_ptr<const Strategy> strategy = make_strategy(StrategyKind::kEb);
  std::unique_ptr<BrokerStep> step;

  StepRig() {
    topo.graph.resize(2);
    topo.graph.add_bidirectional(0, 1, LinkParams{2.0, 0.0});
    topo.publisher_edges = {0};
    topo.subscriber_homes = {1};
    Subscription sub;
    sub.subscriber = 0;
    sub.home = 1;
    fabric = std::make_unique<RoutingFabric>(topo, std::vector{sub});
    SimulatorOptions options;
    options.serialize_processing = true;
    step = std::make_unique<BrokerStep>(&topo, &topo.graph, fabric.get(),
                                        strategy.get(), options, Rng(1));
  }

  static std::shared_ptr<const Message> message() {
    return std::make_shared<Message>(0, 0, 0.0, 50.0,
                                     std::vector<Attribute>{});
  }
};

TEST(BrokerStepInvariants, EachQuiescenceClauseFailsOnItsOwn) {
  {
    StepRig rig;
    EXPECT_NO_THROW(rig.step->check_invariants());
    rig.step->brokers[0].queue_at(0).set_link_busy(true);
    EXPECT_THROW(rig.step->check_invariants(), std::logic_error);
  }
  {
    StepRig rig;
    rig.step->processing_busy[1] = 1;
    EXPECT_THROW(rig.step->check_invariants(), std::logic_error);
  }
  {
    StepRig rig;
    rig.step->input_queues[0].push_back(StepRig::message());
    EXPECT_THROW(rig.step->check_invariants(), std::logic_error);
  }
}

TEST(BrokerStepInvariants, QueuedCopiesAreQuiescentOnlyOnADownLink) {
  StepRig rig;
  // Processing at broker 0 queues one copy toward broker 1.
  const Broker::FanOut fanout =
      rig.step->brokers[0].process(StepRig::message(), 0.0);
  ASSERT_EQ(fanout.enqueued.size(), 1u);
  EXPECT_THROW(rig.step->check_invariants(), std::logic_error);

  rig.step->allocate_fault_state();
  rig.step->down[rig.topo.graph.edge_id(0, 1)] = 1;  // Held by an outage.
  EXPECT_NO_THROW(rig.step->check_invariants());
}

}  // namespace
}  // namespace bdps
