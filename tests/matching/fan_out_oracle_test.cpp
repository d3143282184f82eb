// Brute-force oracle for Broker::process's fan-out.  For every broker and
// probe, the `local` list and each enqueued copy's targets must equal the
// table rows brute_force_match_at returns, after the three admission
// filters (row disabled by repair, row serves another publisher,
// subscription inactive at the publish instant), split into local rows and
// one group per next hop, each in ascending row order.  The fabric is
// repaired once, so some rows are disabled; two publishers give the rows
// routing's publisher masks; and churned activation windows leave some
// subscriptions inactive at the probes' publish instants.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "broker/broker.h"
#include "common/random.h"
#include "routing/fabric.h"
#include "table_oracle.h"
#include "workload/generator.h"

namespace bdps {
namespace {

ChurnWorkloadConfig filter_config() {
  ChurnWorkloadConfig config;
  config.seed = 17;
  config.attribute_pool = 8;
  config.threshold_pool = 6;
  return config;
}

/// Mesh with enough extra edges that tables differ per broker, two
/// publishers at opposite ends, and SSD subscriptions whose activation
/// windows each cover half of a 10-minute run.
Topology churned_mesh(Rng& rng, std::size_t brokers, std::size_t subscribers,
                      const WorkloadConfig& workload,
                      std::vector<Subscription>* subs_out) {
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
  for (std::size_t s = 0; s < subscribers; ++s) {
    topo.subscriber_homes.push_back(
        static_cast<BrokerId>(rng.uniform_index(brokers)));
  }

  // Deadlines, prices and activation windows come from the workload
  // generator; filters from the churn stream, so probes hit some rows.
  *subs_out = generate_subscriptions(rng, workload, topo);
  ChurnWorkload filters(filter_config());
  Rng aux(5);
  for (Subscription& sub : *subs_out) {
    sub.filter = filters.next_filter();
    if (aux.uniform() < 0.2) sub.or_filters.push_back(filters.next_filter());
  }
  return topo;
}

TEST(FanOutOracle, ProcessSplitsAdmittedRowsByNextHopInRowOrder) {
  WorkloadConfig workload;
  workload.scenario = ScenarioKind::kSsd;
  workload.duration = minutes(10.0);
  workload.churn_fraction = 0.5;

  Rng rng(23);
  std::vector<Subscription> subs;
  const Topology topo = churned_mesh(rng, 12, 96, workload, &subs);
  FabricOptions options;
  options.repairable = true;
  RoutingFabric fabric(topo, std::move(subs), options);
  // One batch downs the first three links (both directions each), so
  // routes move, stale rows are disabled and replacements appended.
  ASSERT_GT(fabric.apply_link_state({0, 1, 2, 3, 4, 5}, {}), 0u);

  const Strategy strategy{StrategyKind::kFifo};
  std::vector<std::unique_ptr<Broker>> brokers;
  for (BrokerId b = 0; b < static_cast<BrokerId>(fabric.broker_count()); ++b) {
    brokers.push_back(std::make_unique<Broker>(
        b, &fabric, &topo.graph, &strategy, 0.0,
        /*queues_for_all_links=*/true));
  }

  ChurnWorkload probes(filter_config());
  for (int skip = 0; skip < 96; ++skip) probes.next_filter();
  Rng publish_rng(31);
  SubscriptionIndex::Scratch scratch;
  std::size_t disabled = 0;
  std::size_t foreign = 0;
  std::size_t inactive = 0;
  std::size_t admitted = 0;
  for (int probe = 0; probe < 200; ++probe) {
    const Message head = probes.next_message();
    const auto publisher = static_cast<PublisherId>(probe % 2);
    const TimeMs publish_time = publish_rng.uniform(0.0, workload.duration);
    const auto message = std::make_shared<const Message>(
        head.id(), publisher, publish_time, 50.0, head.head());

    for (auto& broker : brokers) {
      // Brute-force split of the matched rows.
      std::vector<const SubscriptionEntry*> local;
      std::map<BrokerId, std::vector<const SubscriptionEntry*>> remote;
      for (const SubscriptionEntry* entry :
           brute_force_match_at(fabric, broker->id(), *message)) {
        if (entry->disabled) {
          ++disabled;
        } else if (!entry->serves_publisher(publisher)) {
          ++foreign;
        } else if (!entry->subscription->active_at(publish_time)) {
          ++inactive;
        } else {
          ++admitted;
          if (entry->is_local()) {
            local.push_back(entry);
          } else {
            remote[entry->next_hop].push_back(entry);
          }
        }
      }

      // Both process overloads, alternating by probe.
      const Broker::FanOut fan_out =
          probe % 2 == 0 ? broker->process(message, publish_time, scratch)
                         : broker->process(message, publish_time);
      ASSERT_EQ(fan_out.local, local)
          << "broker " << broker->id() << " probe " << probe;

      std::vector<Broker::QueueSlot> expect_enqueued;
      for (const auto& [neighbor, targets] : remote) {
        const Broker::QueueSlot slot = broker->slot_of(neighbor);
        ASSERT_NE(slot, Broker::kNoSlot) << "no queue toward " << neighbor;
        expect_enqueued.push_back(slot);
        const OutputQueue& queue = broker->queue_at(slot);
        ASSERT_EQ(queue.size(), 1u);
        EXPECT_EQ(queue.messages().front().targets, targets)
            << "broker " << broker->id() << " probe " << probe
            << " neighbour " << neighbor;
      }
      std::sort(expect_enqueued.begin(), expect_enqueued.end());
      ASSERT_EQ(fan_out.enqueued, expect_enqueued)
          << "broker " << broker->id() << " probe " << probe;
      // No link ever goes busy here, so every enqueued slot is sendable.
      EXPECT_EQ(fan_out.sendable, expect_enqueued);
      for (const Broker::QueueSlot slot : fan_out.enqueued) {
        broker->queue_at(slot).clear();
      }
    }
  }
  // Every admission filter dropped something, and rows still got through.
  EXPECT_GT(disabled, 0u);
  EXPECT_GT(foreign, 0u);
  EXPECT_GT(inactive, 0u);
  EXPECT_GT(admitted, 0u);
}

}  // namespace
}  // namespace bdps
