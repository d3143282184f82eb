// Concurrency suite (TSan target: the tsan preset runs `ctest -L
// matching`).  Readers race writers through the epoch-published snapshots;
// the invariants checked here are exactly the ones the protocol promises:
// every emitted row was added with a filter that matches the probe, results
// are ascending and duplicate-free, and a quiesced fabric agrees with brute
// force.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "matching/sharded_index.h"
#include "routing/fabric.h"
#include "table_oracle.h"
#include "workload/generator.h"

namespace bdps::matching {
namespace {

TEST(MatchFabricConcurrent, ReadersRaceChurnWriter) {
  MatchFabricOptions options;
  options.shards = 4;
  options.rebuild_min = 16;  // Frequent republication under the readers.
  MatchFabric fabric(options);

  ChurnWorkloadConfig config;
  config.seed = 11;
  config.attribute_pool = 10;
  config.threshold_pool = 8;
  ChurnWorkload workload(config);

  // The whole add schedule is fixed up front so readers can validate
  // emitted rows against an immutable filter table.
  constexpr std::size_t kAdds = 1500;
  std::vector<Filter> filters;
  filters.reserve(kAdds);
  for (std::size_t i = 0; i < kAdds; ++i) {
    filters.push_back(workload.next_filter());
  }
  std::vector<Message> probes;
  for (int i = 0; i < 32; ++i) probes.push_back(workload.next_message());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng remove_rng(99);
    for (std::size_t i = 0; i < kAdds; ++i) {
      const RowId row = fabric.add(filters[i]);
      ASSERT_EQ(row, i);
      // Tombstone a random earlier row now and then; removed rows may or
      // may not appear in concurrent matches (both linearisations valid),
      // but their filters still matched — the reader invariant holds.
      if (i > 0 && i % 7 == 0) {
        fabric.remove(remove_rng.uniform_index(i));
      }
    }
    done.store(true, std::memory_order_release);
  });

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      MatchScratch scratch;
      std::size_t iterations = 0;
      while (!done.load(std::memory_order_acquire) || iterations < 50) {
        const Message& m = probes[(iterations + static_cast<std::size_t>(r)) %
                                  probes.size()];
        const auto& got = fabric.match(m, scratch);
        ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
        ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
        for (const RowId row : got) {
          ASSERT_LT(row, filters.size());
          ASSERT_TRUE(filters[row].matches(m)) << "row " << row;
        }
        ++iterations;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Quiesced: the fabric must now agree with brute force over the live set.
  std::vector<bool> alive(kAdds, true);
  {
    Rng remove_rng(99);
    for (std::size_t i = 0; i < kAdds; ++i) {
      if (i > 0 && i % 7 == 0) alive[remove_rng.uniform_index(i)] = false;
    }
  }
  MatchScratch scratch;
  for (const Message& m : probes) {
    std::vector<RowId> expect;
    for (std::size_t i = 0; i < kAdds; ++i) {
      if (alive[i] && filters[i].matches(m)) expect.push_back(i);
    }
    ASSERT_EQ(fabric.match(m, scratch), expect);
  }
}

TEST(MatchFabricConcurrent, CompileTierRacesReadersAndChurnWriter) {
  // The compile tier's two publication paths race here: rebuilds compile
  // (or reuse) hot roots' programs inline, and readers volunteer through
  // try_lock mid-match.
  // hits=1/min_members=1 makes every matched root hot immediately, so
  // program republishes happen constantly under the reader load (the TSan
  // matching preset runs this).
  MatchFabricOptions options;
  options.shards = 2;
  options.rebuild_min = 16;
  options.compile_hot_hits = 1;
  options.compile_min_members = 1;
  MatchFabric fabric(options);

  ChurnWorkloadConfig config;
  config.seed = 17;
  config.attribute_pool = 8;   // Heavy collisions: big covering roots.
  config.threshold_pool = 6;
  ChurnWorkload workload(config);

  constexpr std::size_t kAdds = 1200;
  std::vector<Filter> filters;
  filters.reserve(kAdds);
  for (std::size_t i = 0; i < kAdds; ++i) {
    filters.push_back(workload.next_filter());
  }
  std::vector<Message> probes;
  for (int i = 0; i < 32; ++i) probes.push_back(workload.next_message());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng remove_rng(5);
    for (std::size_t i = 0; i < kAdds; ++i) {
      const RowId row = fabric.add(filters[i]);
      ASSERT_EQ(row, i);
      if (i > 0 && i % 5 == 0) {
        fabric.remove(remove_rng.uniform_index(i));
      }
    }
    done.store(true, std::memory_order_release);
  });

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      MatchScratch scratch;
      std::size_t iterations = 0;
      while (!done.load(std::memory_order_acquire) || iterations < 80) {
        const Message& m = probes[(iterations + static_cast<std::size_t>(r)) %
                                  probes.size()];
        const auto& got = fabric.match(m, scratch);
        ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
        ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
        for (const RowId row : got) {
          ASSERT_LT(row, filters.size());
          ASSERT_TRUE(filters[row].matches(m)) << "row " << row;
        }
        ++iterations;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Quiesced: compiled answers equal brute force over the live set, and
  // the tier demonstrably ran.
  std::vector<bool> alive(kAdds, true);
  {
    Rng remove_rng(5);
    for (std::size_t i = 0; i < kAdds; ++i) {
      if (i > 0 && i % 5 == 0) alive[remove_rng.uniform_index(i)] = false;
    }
  }
  MatchScratch scratch;
  for (const Message& m : probes) {
    std::vector<RowId> expect;
    for (std::size_t i = 0; i < kAdds; ++i) {
      if (alive[i] && filters[i].matches(m)) expect.push_back(i);
    }
    ASSERT_EQ(fabric.match(m, scratch), expect);
  }
  const MatchFabric::Stats stats = fabric.stats();
  EXPECT_GT(stats.compiles, 0u);
  EXPECT_GT(stats.compiled_roots, 0u);
  EXPECT_GT(stats.vm_member_evals, 0u);
}

TEST(MatchFabricConcurrent, ManyScratchesShareOneDomainSlotPool) {
  MatchFabric fabric;
  for (int i = 0; i < 8; ++i) {
    Filter f;
    f.where("A", Op::kGe, Value(static_cast<double>(i)));
    fabric.add(f);
  }
  const Message m(1, 0, 0.0, 1.0, {{"A", Value(100.0)}});
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      // Scratches come and go: slots must recycle without double-use.
      for (int i = 0; i < 200; ++i) {
        MatchScratch scratch;
        ASSERT_EQ(fabric.match(m, scratch).size(), 8u);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Star of kBrokers - 1 spokes around hub 0, plus a ring through the spokes
/// so a downed spoke link has a detour; the publisher sits at the hub and
/// every spoke hosts subscribers.
std::unique_ptr<RoutingFabric> hub_ring_fabric(bool repairable) {
  constexpr std::size_t kBrokers = 16;
  Rng rng(3);
  Topology topo;
  topo.graph.resize(kBrokers);
  for (std::size_t b = 1; b < kBrokers; ++b) {
    topo.graph.add_bidirectional(0, static_cast<BrokerId>(b),
                                 LinkParams{50.0 + 2.0 * b, 10.0});
  }
  for (std::size_t b = 1; b < kBrokers; ++b) {
    const auto next = static_cast<BrokerId>(b % (kBrokers - 1) + 1);
    topo.graph.add_bidirectional(static_cast<BrokerId>(b), next,
                                 LinkParams{120.0, 10.0});
  }
  topo.publisher_edges = {0};
  std::vector<Subscription> subs;
  for (std::size_t s = 0; s < 64; ++s) {
    Subscription sub;
    sub.subscriber = static_cast<SubscriberId>(s);
    sub.home = static_cast<BrokerId>(1 + s % (kBrokers - 1));
    topo.subscriber_homes.push_back(sub.home);
    Filter f;
    f.where("A1", Op::kLt, Value(rng.uniform(0.0, 10.0)));
    if (s % 3 == 0) f.where("A2", Op::kGe, Value(rng.uniform(0.0, 10.0)));
    sub.filter = std::move(f);
    subs.push_back(std::move(sub));
  }
  FabricOptions options;
  options.repairable = repairable;
  return std::make_unique<RoutingFabric>(topo, std::move(subs), options);
}

std::vector<Message> fabric_probes() {
  Rng rng(4);
  std::vector<Message> probes;
  for (int i = 0; i < 24; ++i) {
    probes.emplace_back(i, 0, 0.0, 1.0,
                        std::vector<Attribute>{
                            {"A1", Value(rng.uniform(0.0, 10.0))},
                            {"A2", Value(rng.uniform(0.0, 10.0))}});
  }
  return probes;
}

/// Races match_at against the brute-force answer: first four threads on
/// broker 1, each with its own caller scratch, then one thread per broker
/// on the table-scratch overload (the reactor's broker-ownership layout).
/// The caller-scratch race runs first, so it reads the indexes exactly as
/// the constructor or the last repair batch left them.
void race_match_at(const RoutingFabric& fabric,
                   const std::vector<Message>& probes) {
  const auto brokers = static_cast<BrokerId>(fabric.broker_count());
  std::vector<std::vector<std::vector<const SubscriptionEntry*>>> expect(
      brokers);
  for (BrokerId b = 0; b < brokers; ++b) {
    for (const Message& m : probes) {
      expect[b].push_back(brute_force_match_at(fabric, b, m));
    }
  }

  std::vector<std::thread> same_broker;
  for (int t = 0; t < 4; ++t) {
    same_broker.emplace_back([&] {
      SubscriptionIndex::Scratch scratch;
      std::vector<const SubscriptionEntry*> out;
      for (int round = 0; round < 40; ++round) {
        for (std::size_t i = 0; i < probes.size(); ++i) {
          fabric.match_at(1, probes[i], scratch, out);
          ASSERT_EQ(out, expect[1][i]);
        }
      }
    });
  }
  for (std::thread& t : same_broker) t.join();

  std::vector<std::thread> threads;
  for (BrokerId b = 0; b < brokers; ++b) {
    threads.emplace_back([&, b] {
      std::vector<const SubscriptionEntry*> out;
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < probes.size(); ++i) {
          fabric.match_at(b, probes[i], out);
          ASSERT_EQ(out, expect[b][i]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Satellite: concurrent match_at from distinct brokers, and from the
/// *same* broker with caller scratches, is race-free and agrees with brute
/// force.
TEST(RoutingFabricConcurrent, MatchAtFromDistinctBrokersIsRaceFree) {
  const auto fabric = hub_ring_fabric(/*repairable=*/false);
  race_match_at(*fabric, fabric_probes());
}

/// The same races after a repair batch appended rows to the tables: the
/// batch must leave every index finalized, so readers never sort lazily.
TEST(RoutingFabricConcurrent, MatchAtAfterRepairBatchIsRaceFree) {
  const auto fabric = hub_ring_fabric(/*repairable=*/true);
  // Down the hub's links to spokes 1 and 2 (edge ids 0..3): their
  // subscriptions re-route around the ring and get fresh rows.
  ASSERT_GT(fabric->apply_link_state({0, 1, 2, 3}, {}), 0u);
  fabric->check_invariants();
  race_match_at(*fabric, fabric_probes());
}

}  // namespace
}  // namespace bdps::matching
