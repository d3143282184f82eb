// Heap allocation counts on the send and repair paths.
//
// This binary replaces the global operator new with one that counts, so it
// lives apart from the other suites.  Two contracts:
//   * a warmed-up Broker::process allocates nothing per call but each
//     queued copy's own buffers, its exact-size target list and its kernel
//     rows (at most 2 per copy): the fan-out result and the per-slot target
//     buffers are the broker's and are reused;
//   * RoutingFabric's reinstall of a subscription whose install set did
//     not change allocates nothing: the install-set builder's buffers are
//     the fabric's;
//   * a warmed apply_link_state batch that repairs shortest-path trees
//     but rewrites no table row allocates nothing: the tree repair's
//     buffers and the batch's flag vectors are the fabric's too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "broker/broker.h"
#include "common/random.h"
#include "routing/fabric.h"
#include "topology/builders.h"

namespace {

std::atomic<std::size_t> allocations{0};

// Out of line, so the compiler does not pair an inlined operator new with
// free.
[[gnu::noinline]] void* counted_malloc(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

[[gnu::noinline]] void counted_free(void* p) { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }

namespace bdps {

/// Reaches RoutingFabric's private repair step.
struct RoutingFabricTestPeer {
  static std::size_t reinstall_unchanged(RoutingFabric& fabric,
                                         std::size_t sub_index,
                                         std::vector<std::uint8_t>& changed,
                                         std::vector<std::uint8_t>& touched) {
    const ShortestPathTree& tree =
        fabric.trees_.at(fabric.subscriptions_[sub_index].home);
    return fabric.reinstall(sub_index, tree, changed, touched);
  }
};

namespace {

std::vector<Subscription> wildcard_subs(const Topology& topo) {
  std::vector<Subscription> subs;
  for (const BrokerId home : topo.subscriber_homes) {
    Subscription sub;
    sub.subscriber = static_cast<SubscriberId>(subs.size());
    sub.home = home;
    sub.allowed_delay = seconds(30.0);
    subs.push_back(sub);
  }
  return subs;
}

TEST(AllocationCount, WarmBrokerProcessAllocatesOnlyTheQueuedCopies) {
  Rng rng(5);
  const Topology topo = build_random_mesh(rng, 16, 12, 3, 24, 50.0, 100.0,
                                          20.0);
  const RoutingFabric fabric(topo, wildcard_subs(topo));
  const Strategy strategy(StrategyKind::kEbpc, 0.5);
  // The broker carrying the most table rows fans out the widest.
  BrokerId busiest = 0;
  for (std::size_t b = 0; b < fabric.broker_count(); ++b) {
    if (fabric.table(static_cast<BrokerId>(b)).size() >
        fabric.table(busiest).size()) {
      busiest = static_cast<BrokerId>(b);
    }
  }
  Broker broker(busiest, &fabric, &topo.graph, &strategy, 2.0);
  ASSERT_GT(broker.queue_count(), 0u);

  // Stamped up front: stamping is the overlay entry's once-per-message
  // cost, not the broker's.
  SubscriptionIndex::Scratch scratch;
  std::vector<std::shared_ptr<const Message>> messages;
  for (PublisherId p = 0; p < 3; ++p) {
    for (int i = 0; i < 8; ++i) {
      auto message = std::make_shared<const Message>(
          static_cast<MessageId>(messages.size()), p, 0.0, 20.0,
          std::vector<Attribute>{});
      fabric.stamp(*message, scratch);
      messages.push_back(std::move(message));
    }
  }

  std::vector<Broker::QueueSlot> all_slots;
  for (std::size_t s = 0; s < broker.queue_count(); ++s) {
    all_slots.push_back(static_cast<Broker::QueueSlot>(s));
  }
  std::vector<Broker::Dispatch> dispatch;
  const auto drain = [&](TimeMs now) {
    bool any = true;
    while (any) {
      broker.take_next(all_slots, now, PurgePolicy{}, dispatch);
      any = false;
      for (const Broker::Dispatch& d : dispatch) {
        any = any || d.chosen.has_value();
      }
    }
  };

  // Round 1 warms every buffer up to the round's depth; round 2 repeats it.
  for (const auto& message : messages) broker.process(message, 1.0, scratch);
  drain(2.0);
  dispatch.reserve(dispatch.size());

  std::size_t copies = 0;
  const std::size_t before = allocations.load();
  for (const auto& message : messages) {
    copies += broker.process(message, 3.0, scratch).enqueued.size();
  }
  const std::size_t allocated = allocations.load() - before;
  drain(4.0);

  ASSERT_GT(copies, messages.size());  // Fans out to several queues.
  EXPECT_LE(allocated, 2 * copies) << copies << " copies";
}

TEST(AllocationCount, ReinstallOfAnUnchangedSubscriptionAllocatesNothing) {
  Rng rng(9);
  const Topology topo = build_random_mesh(rng, 24, 20, 3, 12, 50.0, 100.0,
                                          20.0);
  FabricOptions options;
  options.repairable = true;
  RoutingFabric fabric(topo, wildcard_subs(topo), options);
  std::vector<std::uint8_t> changed(fabric.broker_count(), 0);
  std::vector<std::uint8_t> touched(fabric.broker_count(), 0);

  for (std::size_t si = 0; si < fabric.subscription_count(); ++si) {
    const std::size_t before = allocations.load();
    const std::size_t rewritten =
        RoutingFabricTestPeer::reinstall_unchanged(fabric, si, changed,
                                                   touched);
    EXPECT_EQ(allocations.load() - before, 0u) << "subscription " << si;
    EXPECT_EQ(rewritten, 0u) << "subscription " << si;
  }
  for (const std::uint8_t t : touched) EXPECT_EQ(t, 0);
  fabric.check_invariants();
}

TEST(AllocationCount, WarmLinkStateBatchAllocatesNothing) {
  Rng rng(9);
  const Topology topo = build_random_mesh(rng, 24, 20, 3, 12, 50.0, 100.0,
                                          20.0);
  FabricOptions options;
  options.repairable = true;
  const auto next_hops = [&](const RoutingFabric& fabric) {
    std::vector<BrokerId> hops;
    for (const BrokerId home : topo.subscriber_homes) {
      const std::vector<BrokerId>& tree = fabric.tree_toward(home).next_hop;
      hops.insert(hops.end(), tree.begin(), tree.end());
    }
    return hops;
  };
  // A directed link whose loss re-routes some broker's tree but no
  // publisher's path: the batch repairs trees and rewrites no row.
  EdgeId quiet = kNoEdge;
  for (EdgeId e = 0; e < static_cast<EdgeId>(topo.graph.edge_count()) &&
                     quiet == kNoEdge;
       ++e) {
    RoutingFabric probe(topo, wildcard_subs(topo), options);
    const std::vector<BrokerId> before = next_hops(probe);
    if (probe.apply_link_state({e}, {}) == 0 && next_hops(probe) != before) {
      quiet = e;
    }
  }
  ASSERT_NE(quiet, kNoEdge) << "no link re-routes a tree without a rewrite";

  RoutingFabric fabric(topo, wildcard_subs(topo), options);
  const std::vector<BrokerId> intact = next_hops(fabric);
  // One down/up cycle warms every buffer.
  ASSERT_EQ(fabric.apply_link_state({quiet}, {}), 0u);
  ASSERT_EQ(fabric.apply_link_state({}, {quiet}), 0u);
  const std::vector<EdgeId> link = {quiet};
  const std::vector<EdgeId> none;
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::size_t before = allocations.load();
    EXPECT_EQ(fabric.apply_link_state(link, none), 0u);
    EXPECT_EQ(allocations.load() - before, 0u) << "down, cycle " << cycle;
    EXPECT_NE(next_hops(fabric), intact);
    before = allocations.load();
    EXPECT_EQ(fabric.apply_link_state(none, link), 0u);
    EXPECT_EQ(allocations.load() - before, 0u) << "up, cycle " << cycle;
  }
  fabric.check_invariants();
}

}  // namespace
}  // namespace bdps
