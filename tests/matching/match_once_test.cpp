// Match each message once: a message is matched against the fabric's
// global index when it enters the overlay (RoutingFabric::stamp), and every
// broker selects its table rows from that stamp.  Three properties hold the
// design up:
//   * a stamp is exactly the brute-force match over the subscriptions,
//     or_filters included;
//   * a stamp made by another fabric is never trusted: the broker gets the
//     brute-force split of its own fabric;
//   * a stamp made before a repair batch still selects the post-repair
//     rows: disabled rows stay out, appended ones come in.
// The "brute-force split" is fan_out_oracle_test's: the matching rows less
// disabled ones, foreign-publisher ones and inactive subscriptions, split
// into local rows and one group per next hop, in ascending row order.
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

constexpr std::size_t kBrokers = 12;
constexpr std::size_t kSubscribers = 96;

WorkloadConfig churned_workload() {
  WorkloadConfig workload;
  workload.scenario = ScenarioKind::kSsd;
  workload.duration = minutes(10.0);
  workload.churn_fraction = 0.5;
  return workload;
}

ChurnWorkloadConfig filter_config(std::uint64_t seed) {
  ChurnWorkloadConfig config;
  config.seed = seed;
  config.attribute_pool = 8;
  config.threshold_pool = 6;
  return config;
}

/// A mesh with extra edges (tables differ per broker) and two publishers
/// at opposite ends; the same topology for every `filter_seed`.
Topology mesh() {
  Rng rng(23);
  Topology topo;
  topo.graph.resize(kBrokers);
  for (std::size_t b = 1; b < kBrokers; ++b) {
    const auto parent = static_cast<BrokerId>(rng.uniform_index(b));
    topo.graph.add_bidirectional(parent, static_cast<BrokerId>(b),
                                 LinkParams{rng.uniform(40.0, 90.0), 10.0});
  }
  for (std::size_t e = 0; e < kBrokers / 2; ++e) {
    const auto a = static_cast<BrokerId>(rng.uniform_index(kBrokers));
    const auto b = static_cast<BrokerId>(rng.uniform_index(kBrokers));
    if (a == b || topo.graph.edge_id(a, b) != kNoEdge) continue;
    topo.graph.add_bidirectional(a, b, LinkParams{rng.uniform(40.0, 90.0),
                                                  10.0});
  }
  topo.publisher_edges = {0, static_cast<BrokerId>(kBrokers - 1)};
  for (std::size_t s = 0; s < kSubscribers; ++s) {
    topo.subscriber_homes.push_back(
        static_cast<BrokerId>(rng.uniform_index(kBrokers)));
  }
  return topo;
}

/// SSD subscriptions with churned activation windows; filters (a fifth
/// with a second disjunct) from the churn stream seeded `filter_seed`.
std::vector<Subscription> subscriptions(const Topology& topo,
                                        std::uint64_t filter_seed) {
  Rng rng(29);
  std::vector<Subscription> subs =
      generate_subscriptions(rng, churned_workload(), topo);
  ChurnWorkload filters(filter_config(filter_seed));
  Rng aux(5);
  for (Subscription& sub : subs) {
    sub.filter = filters.next_filter();
    if (aux.uniform() < 0.2) sub.or_filters.push_back(filters.next_filter());
  }
  return subs;
}

/// Probe messages from the churn stream, alternating publishers, published
/// across the run so activation windows bite.
std::vector<std::shared_ptr<const Message>> probes(std::size_t count) {
  ChurnWorkload stream(filter_config(17));
  for (int skip = 0; skip < 96; ++skip) stream.next_filter();
  Rng publish_rng(31);
  std::vector<std::shared_ptr<const Message>> out;
  for (std::size_t i = 0; i < count; ++i) {
    const Message head = stream.next_message();
    out.push_back(std::make_shared<const Message>(
        static_cast<MessageId>(i), static_cast<PublisherId>(i % 2),
        publish_rng.uniform(0.0, churned_workload().duration), 50.0,
        head.head()));
  }
  return out;
}

std::vector<std::uint64_t> brute_force_stamp(const RoutingFabric& fabric,
                                             const Message& message) {
  std::vector<std::uint64_t> bits((fabric.subscription_count() + 63) / 64, 0);
  for (std::size_t i = 0; i < fabric.subscription_count(); ++i) {
    if (fabric.subscription(i).matches(message)) {
      bits[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  return bits;
}

std::vector<std::unique_ptr<Broker>> brokers_of(const RoutingFabric& fabric,
                                                const Topology& topo,
                                                const Strategy* strategy) {
  std::vector<std::unique_ptr<Broker>> brokers;
  for (BrokerId b = 0; b < static_cast<BrokerId>(fabric.broker_count()); ++b) {
    brokers.push_back(std::make_unique<Broker>(
        b, &fabric, &topo.graph, strategy, 0.0,
        /*queues_for_all_links=*/true));
  }
  return brokers;
}

/// Counts of the rows each admission filter dropped, over every check.
struct Dropped {
  std::size_t disabled = 0;
  std::size_t foreign = 0;
  std::size_t inactive = 0;
  std::size_t admitted = 0;
};

/// Processes `message` at `broker` through `scratch` and checks the fan-out
/// against the brute-force split of the broker's own fabric; match_for
/// must return the admitted rows in ascending order.
void expect_split(const RoutingFabric& fabric, Broker& broker,
                  const std::shared_ptr<const Message>& message,
                  SubscriptionIndex::Scratch& scratch, Dropped& dropped) {
  const PublisherId publisher = message->publisher();
  const TimeMs publish_time = message->publish_time();
  std::vector<const SubscriptionEntry*> admitted;
  std::vector<const SubscriptionEntry*> local;
  std::map<BrokerId, std::vector<const SubscriptionEntry*>> remote;
  for (const SubscriptionEntry* entry :
       brute_force_match_at(fabric, broker.id(), *message)) {
    if (entry->disabled) {
      ++dropped.disabled;
      continue;
    }
    if (!entry->serves_publisher(publisher)) {
      ++dropped.foreign;
      continue;
    }
    admitted.push_back(entry);
    if (!entry->subscription->active_at(publish_time)) {
      ++dropped.inactive;
      continue;
    }
    ++dropped.admitted;
    if (entry->is_local()) {
      local.push_back(entry);
    } else {
      remote[entry->next_hop].push_back(entry);
    }
  }
  std::vector<const SubscriptionEntry*> selected;
  for (const auto row :
       fabric.match_for(broker.id(), *message, publisher, scratch)) {
    selected.push_back(&fabric.table(broker.id()).entries()[row]);
  }
  ASSERT_EQ(selected, admitted) << "match_for at broker " << broker.id()
                                << ", message " << message->id();

  const Broker::FanOut fan_out =
      broker.process(message, publish_time, scratch);
  ASSERT_EQ(fan_out.local, local)
      << "broker " << broker.id() << ", message " << message->id();
  std::vector<Broker::QueueSlot> expect_enqueued;
  for (const auto& [neighbor, targets] : remote) {
    const Broker::QueueSlot slot = broker.slot_of(neighbor);
    ASSERT_NE(slot, Broker::kNoSlot) << "no queue toward " << neighbor;
    expect_enqueued.push_back(slot);
    const OutputQueue& queue = broker.queue_at(slot);
    ASSERT_EQ(queue.size(), 1u);
    EXPECT_EQ(queue.messages().front().targets, targets)
        << "broker " << broker.id() << ", message " << message->id()
        << ", neighbour " << neighbor;
  }
  std::sort(expect_enqueued.begin(), expect_enqueued.end());
  ASSERT_EQ(fan_out.enqueued, expect_enqueued)
      << "broker " << broker.id() << ", message " << message->id();
  for (const Broker::QueueSlot slot : fan_out.enqueued) {
    broker.queue_at(slot).clear();
  }
}

TEST(MatchOnce, StampEqualsBruteForceOverSubscriptions) {
  const Topology topo = mesh();
  const RoutingFabric fabric(topo, subscriptions(topo, 17));
  ASSERT_NE(fabric.id(), 0u);
  SubscriptionIndex::Scratch scratch;
  std::size_t disjunct_only = 0;
  for (const auto& message : probes(200)) {
    EXPECT_EQ(message->stamp().owner, 0u);
    fabric.stamp(*message, scratch);
    ASSERT_EQ(message->stamp().owner, fabric.id());
    const std::vector<std::uint64_t> expect =
        brute_force_stamp(fabric, *message);
    ASSERT_EQ(message->stamp().bits, expect) << "message " << message->id();
    // matched() reads the stamp back; match_all lists the same bits.
    ASSERT_EQ(fabric.matched(*message, scratch), expect);
    std::vector<std::size_t> listed;
    for (std::size_t i = 0; i < fabric.subscription_count(); ++i) {
      if ((expect[i / 64] >> (i % 64)) & 1) listed.push_back(i);
      const Subscription& sub = fabric.subscription(i);
      if (!sub.filter.matches(*message) && sub.matches(*message)) {
        ++disjunct_only;
      }
    }
    ASSERT_EQ(fabric.match_all(*message, scratch), listed);
    // A second stamp by the same fabric is a no-op.
    fabric.stamp(*message, scratch);
    ASSERT_EQ(message->stamp().bits, expect);
  }
  // Some subscriptions matched through an or_filter alone.
  EXPECT_GT(disjunct_only, 0u);
}

TEST(MatchOnce, ForeignStampGetsOwnFabricsBruteForceSplit) {
  const Topology topo = mesh();
  // Same topology and homes, different filters: the two fabrics' stamps
  // of one message disagree.
  const RoutingFabric foreign(topo, subscriptions(topo, 41));
  const RoutingFabric own(topo, subscriptions(topo, 17));
  ASSERT_NE(foreign.id(), own.id());
  const Strategy strategy{StrategyKind::kFifo};
  auto brokers = brokers_of(own, topo, &strategy);
  SubscriptionIndex::Scratch scratch;
  Dropped dropped;
  std::size_t disagree = 0;
  for (const auto& message : probes(200)) {
    foreign.stamp(*message, scratch);
    if (message->stamp().bits != brute_force_stamp(own, *message)) ++disagree;
    for (auto& broker : brokers) {
      expect_split(own, *broker, message, scratch, dropped);
      // Both process overloads read the message, never restamp it.
      broker->process(message, message->publish_time());
      for (Broker::QueueSlot slot = 0;
           slot < static_cast<Broker::QueueSlot>(broker->queue_count());
           ++slot) {
        broker->queue_at(slot).clear();
      }
      ASSERT_EQ(message->stamp().owner, foreign.id());
    }
  }
  EXPECT_GT(disagree, 0u);
  EXPECT_GT(dropped.admitted, 0u);
}

TEST(MatchOnce, StampMadeBeforeRepairSelectsPostRepairRows) {
  const Topology topo = mesh();
  FabricOptions options;
  options.repairable = true;
  RoutingFabric fabric(topo, subscriptions(topo, 17), options);
  const Strategy strategy{StrategyKind::kFifo};
  auto brokers = brokers_of(fabric, topo, &strategy);
  SubscriptionIndex::Scratch scratch;
  const auto messages = probes(200);
  for (const auto& message : messages) fabric.stamp(*message, scratch);

  // One batch downs the first three links (both directions each), so
  // routes move, stale rows are disabled and replacements appended.
  std::vector<std::size_t> rows_before;
  for (BrokerId b = 0; b < static_cast<BrokerId>(kBrokers); ++b) {
    rows_before.push_back(fabric.table(b).size());
  }
  ASSERT_GT(fabric.apply_link_state({0, 1, 2, 3, 4, 5}, {}), 0u);
  fabric.check_invariants();
  std::size_t appended = 0;
  for (BrokerId b = 0; b < static_cast<BrokerId>(kBrokers); ++b) {
    appended += fabric.table(b).size() - rows_before[b];
  }
  ASSERT_GT(appended, 0u);

  Dropped dropped;
  for (const auto& message : messages) {
    ASSERT_EQ(message->stamp().owner, fabric.id());
    for (auto& broker : brokers) {
      expect_split(fabric, *broker, message, scratch, dropped);
    }
  }
  // Every admission filter dropped something, and rows still got through.
  EXPECT_GT(dropped.disabled, 0u);
  EXPECT_GT(dropped.foreign, 0u);
  EXPECT_GT(dropped.inactive, 0u);
  EXPECT_GT(dropped.admitted, 0u);
}

}  // namespace
}  // namespace bdps
