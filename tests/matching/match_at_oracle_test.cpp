// Brute-force oracle for RoutingFabric::match_at: every overload must emit
// exactly the table rows whose filter (or any or_filter) matches, in
// ascending row order, on a static fabric and on a repairable one after
// each repair batch.  The simulator's FP reductions run in that order, so
// this is the property the golden matrix leans on.  match_for, the
// broker's path, must emit the same rows less the disabled ones and those
// serving another publisher, still ascending.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "routing/fabric.h"
#include "table_oracle.h"
#include "workload/generator.h"

namespace bdps {
namespace {

/// Mesh with enough extra edges that tables differ per broker.
Topology mesh_topology(Rng& rng, std::size_t brokers,
                       std::vector<Subscription>* subs_out,
                       std::size_t subscribers) {
  Topology topo;
  topo.graph.resize(brokers);
  for (std::size_t b = 1; b < brokers; ++b) {
    const auto parent = static_cast<BrokerId>(rng.uniform_index(b));
    topo.graph.add_bidirectional(parent, static_cast<BrokerId>(b),
                                 LinkParams{rng.uniform(40.0, 90.0), 10.0});
  }
  for (std::size_t e = 0; e < brokers / 2; ++e) {
    const auto a = static_cast<BrokerId>(rng.uniform_index(brokers));
    const auto b = static_cast<BrokerId>(rng.uniform_index(brokers));
    if (a == b || topo.graph.edge_id(a, b) != kNoEdge) continue;
    topo.graph.add_bidirectional(a, b, LinkParams{rng.uniform(40.0, 90.0),
                                                  10.0});
  }
  topo.publisher_edges = {0, static_cast<BrokerId>(brokers - 1)};

  ChurnWorkloadConfig config;
  config.seed = 17;
  config.attribute_pool = 8;
  config.threshold_pool = 6;
  ChurnWorkload workload(config);
  Rng aux(5);
  for (std::size_t s = 0; s < subscribers; ++s) {
    Subscription sub;
    sub.subscriber = static_cast<SubscriberId>(s);
    sub.home = static_cast<BrokerId>(rng.uniform_index(brokers));
    topo.subscriber_homes.push_back(sub.home);
    sub.filter = workload.next_filter();
    if (aux.uniform() < 0.2) sub.or_filters.push_back(workload.next_filter());
    subs_out->push_back(std::move(sub));
  }
  return topo;
}

/// Probes every broker with every overload against the brute-force oracle,
/// and match_all against brute force over all subscriptions.
void expect_oracle(const RoutingFabric& fabric, const char* label) {
  ChurnWorkloadConfig config;
  config.seed = 17;
  config.attribute_pool = 8;
  config.threshold_pool = 6;
  ChurnWorkload workload(config);
  for (int skip = 0; skip < 96; ++skip) workload.next_filter();

  // The caller-scratch overload runs first on each broker, so it reads an
  // index nothing has matched since the constructor or the repair batch —
  // it only sees sorted runs if those finalized the index.
  SubscriptionIndex::Scratch scratch;
  std::vector<const SubscriptionEntry*> out;
  for (int probe = 0; probe < 200; ++probe) {
    const Message m = workload.next_message();
    for (BrokerId b = 0; b < static_cast<BrokerId>(fabric.broker_count());
         ++b) {
      const std::vector<const SubscriptionEntry*> expect =
          brute_force_match_at(fabric, b, m);
      fabric.match_at(b, m, scratch, out);
      ASSERT_EQ(out, expect) << label << " broker " << b << " probe "
                             << probe << " (caller scratch)";
      fabric.match_at(b, m, out);
      ASSERT_EQ(out, expect) << label << " broker " << b << " probe "
                             << probe << " (table scratch)";
      ASSERT_EQ(fabric.match_at(b, m), expect)
          << label << " broker " << b << " probe " << probe << " (by value)";
      // Publishers 0 and 1 exist; 2 and 63 stand for ids past the
      // topology's publishers, which only local rows serve.
      for (const PublisherId publisher : {0, 1, 2, 63}) {
        std::vector<const SubscriptionEntry*> admitted;
        for (const SubscriptionEntry* entry : expect) {
          if (!entry->disabled && entry->serves_publisher(publisher)) {
            admitted.push_back(entry);
          }
        }
        out.clear();
        for (const auto row : fabric.match_for(b, m, publisher, scratch)) {
          out.push_back(&fabric.table(b).entries()[row]);
        }
        ASSERT_EQ(out, admitted) << label << " broker " << b << " probe "
                                 << probe << " (match_for, publisher "
                                 << publisher << ")";
      }
    }
    std::vector<std::size_t> interested;
    for (std::size_t i = 0; i < fabric.subscription_count(); ++i) {
      const Subscription& sub = fabric.subscription(i);
      bool hit = sub.filter.matches(m);
      for (const Filter& f : sub.or_filters) hit = hit || f.matches(m);
      if (hit) interested.push_back(i);
    }
    ASSERT_EQ(fabric.match_all(m), interested) << label << " probe " << probe;
  }
}

TEST(MatchAtOracle, MatchesBruteForceRowForRow) {
  Rng rng(23);
  std::vector<Subscription> subs;
  const Topology topo = mesh_topology(rng, 12, &subs, 96);
  const RoutingFabric fabric(topo, std::move(subs));
  fabric.check_invariants();
  expect_oracle(fabric, "static");
}

TEST(MatchAtOracle, MatchesBruteForceAfterRepairBatch) {
  Rng rng(23);
  std::vector<Subscription> subs;
  const Topology topo = mesh_topology(rng, 12, &subs, 96);
  FabricOptions options;
  options.repairable = true;
  RoutingFabric fabric(topo, std::move(subs), options);

  // One batch downs the first three links (add_bidirectional numbers a
  // link's two directions consecutively), all of them spanning-tree links
  // of the mesh, so routes move and rows are appended.
  std::size_t rows_before = 0;
  for (BrokerId b = 0; b < static_cast<BrokerId>(fabric.broker_count()); ++b) {
    rows_before += fabric.table(b).size();
  }
  const std::size_t rewritten =
      fabric.apply_link_state({0, 1, 2, 3, 4, 5}, {});
  ASSERT_GT(rewritten, 0u);
  fabric.check_invariants();
  std::size_t rows_after = 0;
  for (BrokerId b = 0; b < static_cast<BrokerId>(fabric.broker_count()); ++b) {
    rows_after += fabric.table(b).size();
  }
  ASSERT_EQ(rows_after, rows_before + rewritten);
  expect_oracle(fabric, "repaired");

  // A second batch brings the links back: routes return, the first
  // batch's rows are disabled in turn and more rows are appended.
  ASSERT_GT(fabric.apply_link_state({}, {0, 1, 2, 3, 4, 5}), 0u);
  fabric.check_invariants();
  expect_oracle(fabric, "recovered");
}

}  // namespace
}  // namespace bdps
