// Fault-plan validation, normalization, serialization and compilation.
//
// materialize_faults is the single gate every fault timeline passes
// through: it must reject references outside the graph and malformed
// windows, expand storm/flap generators deterministically, and normalize
// overlapping windows into sorted disjoint ones.  CompiledFaults turns the
// result, plus any terminal link kills, into per-instant batches and the
// two CSR doom predicates; their half-open boundary conventions are what
// the engines' loss accounting rests on, so they are pinned here
// explicitly.  Every compiled timeline here also passes check_invariants,
// including 200 seeded random plans with kills over a mesh.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/random.h"
#include "sim/faults/plan.h"
#include "sim/faults/timeline.h"
#include "topology/builders.h"
#include "topology/graph.h"

namespace bdps {
namespace {

/// Path 0-1-2-3-4 plus a chord 1-3.
Graph path_graph() {
  Graph graph(5);
  const LinkParams params{40.0, 8.0};
  for (BrokerId b = 0; b + 1 < 5; ++b) {
    graph.add_bidirectional(b, b + 1, params);
  }
  graph.add_bidirectional(1, 3, params);
  return graph;
}

TEST(FaultPlanValidation, RejectsUnknownBrokerAndLink) {
  const Graph graph = path_graph();
  Rng rng(1);
  {
    FaultPlan plan;
    plan.broker_outages.push_back(BrokerOutage{0.0, 10.0, 9});
    EXPECT_THROW(materialize_faults(plan, graph, rng), std::invalid_argument);
  }
  {
    FaultPlan plan;  // Brokers exist, link does not.
    plan.link_outages.push_back(LinkOutage{0.0, 10.0, 0, 4});
    EXPECT_THROW(materialize_faults(plan, graph, rng), std::invalid_argument);
  }
  {
    FaultPlan plan;  // Self-loop.
    plan.link_outages.push_back(LinkOutage{0.0, 10.0, 2, 2});
    EXPECT_THROW(materialize_faults(plan, graph, rng), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.flaps.push_back(LinkFlap{0, 4, 0.0, 10.0, 1.0, 2});
    EXPECT_THROW(materialize_faults(plan, graph, rng), std::invalid_argument);
  }
  {
    FaultPlan plan;
    RegionStorm storm;
    storm.epicenter = -1;
    plan.storms.push_back(storm);
    EXPECT_THROW(materialize_faults(plan, graph, rng), std::invalid_argument);
  }
}

TEST(FaultPlanValidation, RejectsMalformedWindows) {
  const Graph graph = path_graph();
  Rng rng(1);
  {
    FaultPlan plan;  // Inverted.
    plan.link_outages.push_back(LinkOutage{20.0, 10.0, 0, 1});
    EXPECT_THROW(materialize_faults(plan, graph, rng), std::invalid_argument);
  }
  {
    FaultPlan plan;  // Empty.
    plan.broker_outages.push_back(BrokerOutage{10.0, 10.0, 2});
    EXPECT_THROW(materialize_faults(plan, graph, rng), std::invalid_argument);
  }
  {
    FaultPlan plan;  // Negative down time.
    plan.link_outages.push_back(LinkOutage{-1.0, 10.0, 0, 1});
    EXPECT_THROW(materialize_faults(plan, graph, rng), std::invalid_argument);
  }
  {
    FaultPlan plan;  // Flap with non-positive period.
    plan.flaps.push_back(LinkFlap{0, 1, 0.0, 0.0, 1.0, 2});
    EXPECT_THROW(materialize_faults(plan, graph, rng), std::invalid_argument);
  }
  {
    FaultPlan plan;  // Storm with zero recovery delay.
    RegionStorm storm;
    storm.epicenter = 1;
    storm.recovery_delay = 0.0;
    plan.storms.push_back(storm);
    EXPECT_THROW(materialize_faults(plan, graph, rng), std::invalid_argument);
  }
}

TEST(FaultPlanNormalization, MergesOverlappingAndTouchingWindows) {
  const Graph graph = path_graph();
  Rng rng(1);
  FaultPlan plan;
  // Overlap, touch, and disjoint on one link (given in shuffled order, and
  // once with the endpoints swapped — canonicalised to (min, max)).
  plan.link_outages.push_back(LinkOutage{30.0, 40.0, 0, 1});
  plan.link_outages.push_back(LinkOutage{0.0, 10.0, 1, 0});
  plan.link_outages.push_back(LinkOutage{5.0, 12.0, 0, 1});
  plan.link_outages.push_back(LinkOutage{12.0, 20.0, 0, 1});
  plan.broker_outages.push_back(BrokerOutage{50.0, kNoDeadline, 2});
  plan.broker_outages.push_back(BrokerOutage{40.0, 60.0, 2});

  const FaultPlan norm = materialize_faults(plan, graph, rng);
  ASSERT_EQ(norm.link_outages.size(), 2u);
  EXPECT_EQ(norm.link_outages[0].down_at, 0.0);
  EXPECT_EQ(norm.link_outages[0].up_at, 20.0);
  EXPECT_EQ(norm.link_outages[0].a, 0);
  EXPECT_EQ(norm.link_outages[0].b, 1);
  EXPECT_EQ(norm.link_outages[1].down_at, 30.0);
  EXPECT_EQ(norm.link_outages[1].up_at, 40.0);
  ASSERT_EQ(norm.broker_outages.size(), 1u);
  EXPECT_EQ(norm.broker_outages[0].down_at, 40.0);
  EXPECT_EQ(norm.broker_outages[0].up_at, kNoDeadline);  // Never recovers.
  EXPECT_TRUE(norm.storms.empty());
  EXPECT_TRUE(norm.flaps.empty());
}

TEST(FaultPlanGenerators, StormKillsTheBfsBall) {
  const Graph graph = path_graph();
  Rng rng(7);
  FaultPlan plan;
  RegionStorm storm;
  storm.at = 100.0;
  storm.epicenter = 2;
  storm.radius = 1;
  storm.recovery_delay = 50.0;
  storm.kill_brokers = true;
  plan.storms.push_back(storm);

  const FaultPlan norm = materialize_faults(plan, graph, rng);
  // Ball around 2 with radius 1: brokers {1, 2, 3}; links with *both*
  // endpoints inside: 1-2, 2-3 and the chord 1-3.
  ASSERT_EQ(norm.link_outages.size(), 3u);
  for (const LinkOutage& o : norm.link_outages) {
    EXPECT_EQ(o.down_at, 100.0);
    EXPECT_EQ(o.up_at, 150.0);  // No jitter requested.
  }
  EXPECT_EQ(norm.link_outages[0].a, 1);
  EXPECT_EQ(norm.link_outages[0].b, 2);
  EXPECT_EQ(norm.link_outages[1].a, 1);
  EXPECT_EQ(norm.link_outages[1].b, 3);
  EXPECT_EQ(norm.link_outages[2].a, 2);
  EXPECT_EQ(norm.link_outages[2].b, 3);
  // kill_brokers crashes brokers strictly inside (distance <= radius - 1).
  ASSERT_EQ(norm.broker_outages.size(), 1u);
  EXPECT_EQ(norm.broker_outages[0].broker, 2);
}

TEST(FaultPlanGenerators, StormJitterIsDeterministicInTheSeed) {
  const Graph graph = path_graph();
  FaultPlan plan;
  RegionStorm storm;
  storm.at = 10.0;
  storm.epicenter = 2;
  storm.radius = 2;
  storm.recovery_delay = 30.0;
  storm.recovery_jitter = 20.0;
  plan.storms.push_back(storm);

  Rng rng_a(42);
  Rng rng_b(42);
  const FaultPlan a = materialize_faults(plan, graph, rng_a);
  const FaultPlan b = materialize_faults(plan, graph, rng_b);
  ASSERT_EQ(a.link_outages.size(), b.link_outages.size());
  for (std::size_t i = 0; i < a.link_outages.size(); ++i) {
    EXPECT_EQ(a.link_outages[i].up_at, b.link_outages[i].up_at) << i;
    EXPECT_GE(a.link_outages[i].up_at, 40.0) << i;
    EXPECT_LT(a.link_outages[i].up_at, 60.0) << i;
  }
}

TEST(FaultPlanGenerators, FlapExpandsToPeriodicWindows) {
  const Graph graph = path_graph();
  Rng rng(1);
  FaultPlan plan;
  plan.flaps.push_back(LinkFlap{3, 4, 100.0, 50.0, 5.0, 3});
  const FaultPlan norm = materialize_faults(plan, graph, rng);
  ASSERT_EQ(norm.link_outages.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(norm.link_outages[k].down_at, 100.0 + 50.0 * k) << k;
    EXPECT_EQ(norm.link_outages[k].up_at, 105.0 + 50.0 * k) << k;
  }
}

TEST(FaultPlanFormat, RoundTripIsBitwise) {
  FaultPlan plan;
  plan.link_outages.push_back(LinkOutage{0.125, 17.375, 0, 1});
  plan.link_outages.push_back(LinkOutage{1e-3, kNoDeadline, 2, 3});
  plan.broker_outages.push_back(BrokerOutage{3.0625, 9.25, 4});
  RegionStorm storm;
  storm.at = 12.5;
  storm.epicenter = 2;
  storm.radius = 3;
  storm.recovery_delay = 30.75;
  storm.recovery_jitter = 0.5;
  storm.kill_brokers = true;
  plan.storms.push_back(storm);
  plan.flaps.push_back(LinkFlap{1, 3, 7.125, 10.5, 0.875, 4});

  const std::string text = format_fault_plan(plan);
  const FaultPlan parsed = parse_fault_plan(text);
  // A second format of the parse must reproduce the bytes (hexfloat).
  EXPECT_EQ(format_fault_plan(parsed), text);
  ASSERT_EQ(parsed.link_outages.size(), 2u);
  EXPECT_EQ(parsed.link_outages[1].up_at, kNoDeadline);
  ASSERT_EQ(parsed.storms.size(), 1u);
  EXPECT_EQ(parsed.storms[0].recovery_delay, 30.75);
  EXPECT_TRUE(parsed.storms[0].kill_brokers);
  ASSERT_EQ(parsed.flaps.size(), 1u);
  EXPECT_EQ(parsed.flaps[0].count, 4);
}

TEST(FaultPlanFormat, ParserRejectsMalformedDirectives) {
  EXPECT_THROW(parse_fault_plan("link 0 1 0.0"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("broker x 0.0 1.0"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("meteor 0 1"), std::invalid_argument);
  // Comments and blank lines are fine.
  const FaultPlan plan =
      parse_fault_plan("# storm drill\n\nlink 0 1 0x1p+3 inf  # tail\n");
  ASSERT_EQ(plan.link_outages.size(), 1u);
  EXPECT_EQ(plan.link_outages[0].down_at, 8.0);
}

TEST(CompiledFaultsTest, RejectsUnmaterializedPlans) {
  const Graph graph = path_graph();
  FaultPlan plan;
  plan.storms.push_back(RegionStorm{});
  EXPECT_THROW(CompiledFaults::compile(plan, graph), std::invalid_argument);
}

TEST(CompiledFaultsTest, BatchesGroupInstantsInCanonicalOrder) {
  const Graph graph = path_graph();
  Rng rng(1);
  FaultPlan plan;
  plan.link_outages.push_back(LinkOutage{10.0, 30.0, 0, 1});
  plan.broker_outages.push_back(BrokerOutage{10.0, 30.0, 4});
  const FaultPlan norm = materialize_faults(plan, graph, rng);
  const CompiledFaults compiled = CompiledFaults::compile(norm, graph);
  EXPECT_NO_THROW(compiled.check_invariants());

  // One batch at 10 (downs) and one at 30 (ups); the broker outage folds
  // into its incident directed edges (3-4 and 4-3) alongside 0-1 / 1-0.
  ASSERT_EQ(compiled.batches().size(), 2u);
  const FaultBatch& down = compiled.batches()[0];
  EXPECT_EQ(down.at, 10.0);
  EXPECT_EQ(down.brokers_down, (std::vector<BrokerId>{4}));
  EXPECT_TRUE(down.brokers_up.empty());
  ASSERT_EQ(down.edges_down.size(), 4u);
  EXPECT_TRUE(std::is_sorted(down.edges_down.begin(), down.edges_down.end()));
  const FaultBatch& up = compiled.batches()[1];
  EXPECT_EQ(up.at, 30.0);
  EXPECT_EQ(up.brokers_up, (std::vector<BrokerId>{4}));
  EXPECT_EQ(up.edges_up, down.edges_down);
}

TEST(CompiledFaultsTest, DoomPredicatesUseHalfOpenBoundaries) {
  const Graph graph = path_graph();
  Rng rng(1);
  FaultPlan plan;
  plan.link_outages.push_back(LinkOutage{10.0, 20.0, 0, 1});
  plan.broker_outages.push_back(BrokerOutage{100.0, 120.0, 2});
  const FaultPlan norm = materialize_faults(plan, graph, rng);
  const CompiledFaults compiled = CompiledFaults::compile(norm, graph);
  EXPECT_NO_THROW(compiled.check_invariants());
  const EdgeId e01 = graph.edge_id(0, 1);
  const EdgeId e10 = graph.edge_id(1, 0);
  const EdgeId e12 = graph.edge_id(1, 2);

  // A send spanning the down instant is cut; the down-transition at 10 is
  // counted in (after, upto] — exclusive on the left, inclusive right.
  EXPECT_TRUE(compiled.edge_cut_between(e01, 5.0, 15.0));
  EXPECT_TRUE(compiled.edge_cut_between(e10, 5.0, 10.0));   // Ends at 10.
  EXPECT_FALSE(compiled.edge_cut_between(e01, 10.0, 15.0));  // Starts at 10.
  EXPECT_FALSE(compiled.edge_cut_between(e01, 11.0, 19.0));  // Inside: held,
  // not cut — the queue simply cannot start a send while down.
  // A flap fully inside the send still dooms it even though the link is up
  // again at completion.
  EXPECT_TRUE(compiled.edge_cut_between(e01, 5.0, 25.0));
  EXPECT_FALSE(compiled.edge_cut_between(e12, 5.0, 25.0));  // Other link.

  EXPECT_TRUE(compiled.broker_cut_between(2, 95.0, 100.0));
  EXPECT_FALSE(compiled.broker_cut_between(2, 100.0, 105.0));
  EXPECT_FALSE(compiled.broker_cut_between(3, 95.0, 105.0));
}

TEST(CompiledFaultsTest, BrokerWindowsMergeIntoIncidentEdges) {
  const Graph graph = path_graph();
  Rng rng(1);
  FaultPlan plan;
  // Link window overlapping a broker window on edge 1-2: the compiled edge
  // timeline must merge them (one down-transition, not two).
  plan.link_outages.push_back(LinkOutage{10.0, 30.0, 1, 2});
  plan.broker_outages.push_back(BrokerOutage{20.0, 50.0, 2});
  const FaultPlan norm = materialize_faults(plan, graph, rng);
  const CompiledFaults compiled = CompiledFaults::compile(norm, graph);
  EXPECT_NO_THROW(compiled.check_invariants());
  const EdgeId e12 = graph.edge_id(1, 2);
  EXPECT_TRUE(compiled.edge_cut_between(e12, 5.0, 15.0));
  // No transition at 20 or 30 on the merged edge window [10, 50).
  EXPECT_FALSE(compiled.edge_cut_between(e12, 15.0, 45.0));
  // Batches: 10 (link down), 20 (broker crash + its *other* incident edges
  // down — 1-2 is already down and stays merged), 50 (everything up).
  ASSERT_EQ(compiled.batches().size(), 3u);
  EXPECT_EQ(compiled.batches()[0].at, 10.0);
  EXPECT_EQ(compiled.batches()[1].at, 20.0);
  EXPECT_EQ(compiled.batches()[1].brokers_down, (std::vector<BrokerId>{2}));
  EXPECT_EQ(compiled.batches()[2].at, 50.0);
  EXPECT_EQ(compiled.batches()[2].edges_up.size(), 4u);
}

TEST(CompiledFaultsTest, KillsDropLaterRecoveriesAndDoomTheFlight) {
  const Graph graph = path_graph();
  Rng rng(1);
  FaultPlan plan;
  plan.link_outages.push_back(LinkOutage{10.0, 30.0, 0, 1});
  plan.link_outages.push_back(LinkOutage{10.0, 40.0, 1, 2});
  const FaultPlan norm = materialize_faults(plan, graph, rng);
  // 0-1 is killed inside its window; 1-2 at its recovery instant; 2-3 with
  // no window at all, twice (the earliest kill wins); 0-2 is no link.
  const CompiledFaults compiled = CompiledFaults::compile(
      norm, graph,
      {LinkFailure{20.0, 1, 0}, LinkFailure{40.0, 1, 2},
       LinkFailure{60.0, 2, 3}, LinkFailure{50.0, 3, 2},
       LinkFailure{5.0, 0, 2}});
  EXPECT_NO_THROW(compiled.check_invariants());
  const EdgeId e01 = graph.edge_id(0, 1);
  const EdgeId e10 = graph.edge_id(1, 0);
  const EdgeId e12 = graph.edge_id(1, 2);
  const EdgeId e21 = graph.edge_id(2, 1);
  const EdgeId e23 = graph.edge_id(2, 3);
  const EdgeId e32 = graph.edge_id(3, 2);

  // Batches at 10 (downs), 20 (kill 0-1), 40 (kill 1-2, whose recovery at
  // the same instant is gone) and 50 (kill 2-3); 0-1's recovery at 30 is
  // gone, and with it that batch.
  ASSERT_EQ(compiled.batches().size(), 4u);
  const auto& b = compiled.batches();
  EXPECT_EQ(b[1].at, 20.0);
  EXPECT_EQ(b[1].edges_killed, (std::vector<EdgeId>{e01, e10}));
  EXPECT_EQ(b[2].at, 40.0);
  EXPECT_TRUE(b[2].edges_up.empty());
  EXPECT_EQ(b[2].edges_killed, (std::vector<EdgeId>{e12, e21}));
  EXPECT_EQ(b[3].at, 50.0);
  EXPECT_EQ(b[3].edges_killed, (std::vector<EdgeId>{e23, e32}));
  EXPECT_TRUE(b[3].edges_down.empty());

  // A kill is a down-transition: a send over it is cut.
  EXPECT_TRUE(compiled.edge_cut_between(e23, 45.0, 55.0));
  EXPECT_FALSE(compiled.edge_cut_between(e23, 50.0, 70.0));
  EXPECT_TRUE(compiled.edge_cut_between(e10, 15.0, 20.0));
}

TEST(CompiledFaultsTest, KillOnAOneWayLinkKillsTheDirectionThatExists) {
  Graph graph(3);
  graph.add_edge(0, 1, LinkParams{40.0, 8.0});
  graph.add_bidirectional(1, 2, LinkParams{40.0, 8.0});
  const CompiledFaults compiled =
      CompiledFaults::compile({}, graph, {LinkFailure{7.0, 1, 0}});
  EXPECT_NO_THROW(compiled.check_invariants());
  ASSERT_EQ(compiled.batches().size(), 1u);
  EXPECT_EQ(compiled.batches()[0].edges_killed,
            (std::vector<EdgeId>{graph.edge_id(0, 1)}));
}

// 200 seeded random timelines over a mesh: outages, broker crashes, storms,
// flaps and kills (some inside windows, some at their exact instants, some
// on non-adjacent pairs) must always compile into a timeline that passes
// check_invariants.
TEST(CompiledFaultsTest, RandomPlansWithKillsKeepTheInvariants) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const Graph graph =
        build_random_mesh(rng, 12, 8, 1, 1, 20.0, 60.0, 5.0).graph;
    const auto broker = [&] {
      return static_cast<BrokerId>(rng.uniform_index(graph.broker_count()));
    };
    const auto instant = [&] {
      return static_cast<TimeMs>(rng.uniform_index(20)) * 10.0;
    };
    FaultPlan plan;
    std::vector<LinkFailure> kills;
    for (int i = 0; i < 6; ++i) {
      const Edge& edge = graph.edge(
          static_cast<EdgeId>(rng.uniform_index(graph.edge_count())));
      const TimeMs down = instant();
      const TimeMs up =
          rng.uniform() < 0.2 ? kNoDeadline : down + 10.0 + instant();
      plan.link_outages.push_back(LinkOutage{down, up, edge.from, edge.to});
      // Kills at the window's own instants and at random ones.
      const TimeMs at = rng.uniform() < 0.3 ? up : instant();
      kills.push_back(LinkFailure{at == kNoDeadline ? down : at, edge.from,
                                  edge.to});
      kills.push_back(LinkFailure{instant(), broker(), broker()});
    }
    plan.broker_outages.push_back(
        BrokerOutage{instant(), instant() + 200.0, broker()});
    RegionStorm storm;
    storm.at = instant();
    storm.epicenter = broker();
    storm.recovery_delay = 50.0;
    storm.recovery_jitter = 30.0;
    storm.kill_brokers = rng.uniform() < 0.5;
    plan.storms.push_back(storm);
    const FaultPlan norm = materialize_faults(plan, graph, rng);
    const CompiledFaults compiled =
        CompiledFaults::compile(norm, graph, kills);
    EXPECT_NO_THROW(compiled.check_invariants()) << "seed " << seed;
    EXPECT_FALSE(compiled.empty()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace bdps
