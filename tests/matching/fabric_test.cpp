#include "matching/sharded_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "workload/generator.h"

namespace bdps::matching {
namespace {

Message make_message(std::vector<Attribute> head) {
  return Message(1, 0, 0.0, 50.0, std::move(head));
}

Filter where(const std::string& attr, Op op, Value v, Value v2 = Value()) {
  Filter f;
  f.where(attr, op, std::move(v), std::move(v2));
  return f;
}

std::vector<RowId> match(const MatchFabric& fabric, MatchScratch& scratch,
                         const Message& m) {
  return fabric.match(m, scratch);
}

TEST(MatchFabric, BasicAddMatchRemove) {
  MatchFabric fabric;
  MatchScratch scratch;
  const RowId narrow = fabric.add(where("A", Op::kLt, Value(5.0)));
  const RowId wide = fabric.add(where("A", Op::kLt, Value(10.0)));
  EXPECT_EQ(fabric.row_bound(), 2u);

  const Message low = make_message({{"A", Value(1.0)}});
  EXPECT_EQ(match(fabric, scratch, low), (std::vector<RowId>{narrow, wide}));
  const Message mid = make_message({{"A", Value(7.0)}});
  EXPECT_EQ(match(fabric, scratch, mid), (std::vector<RowId>{wide}));

  fabric.remove(narrow);
  EXPECT_EQ(match(fabric, scratch, low), (std::vector<RowId>{wide}));
  fabric.remove(narrow);  // Idempotent.
  EXPECT_EQ(fabric.stats().live_rows, 1u);
  fabric.remove(wide);
  EXPECT_TRUE(match(fabric, scratch, low).empty());
}

TEST(MatchFabric, ResultsAscendEvenAcrossShards) {
  MatchFabricOptions options;
  options.shards = 4;
  MatchFabric fabric(options);
  MatchScratch scratch;
  // Spread rows over attributes (hence shards) in a scrambled add order.
  std::vector<RowId> expect;
  for (int i = 0; i < 64; ++i) {
    expect.push_back(
        fabric.add(where("Z" + std::to_string(i % 7), Op::kGe, Value(0.0))));
  }
  std::vector<Attribute> head;
  for (int a = 0; a < 7; ++a) {
    head.push_back(Attribute{"Z" + std::to_string(a), Value(1.0)});
  }
  const auto& got = fabric.match(make_message(head), scratch);
  EXPECT_EQ(got, expect);  // 0..63 ascending.
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(MatchFabric, DisjunctsEmitTheRowOnce) {
  MatchFabric fabric;
  MatchScratch scratch;
  const RowId row = fabric.add(
      where("A", Op::kLt, Value(5.0)),
      {where("B", Op::kGt, Value(0.0)), where("A", Op::kGt, Value(8.0))});
  // Two disjuncts match this head; the row appears once.
  const Message both =
      make_message({{"A", Value(2.0)}, {"B", Value(1.0)}});
  EXPECT_EQ(match(fabric, scratch, both), (std::vector<RowId>{row}));
  const Message neither = make_message({{"A", Value(6.0)}});
  EXPECT_TRUE(match(fabric, scratch, neither).empty());
  // Removing the row kills every disjunct.
  fabric.remove(row);
  EXPECT_TRUE(match(fabric, scratch, both).empty());
}

TEST(MatchFabric, WildcardAndOpaqueFiltersLandInFallbackShard) {
  MatchFabricOptions options;
  options.shards = 8;
  MatchFabric fabric(options);
  MatchScratch scratch;
  const RowId wild = fabric.add(Filter{});
  const RowId opaque = fabric.add(where("A", Op::kNe, Value(3.0)));
  const RowId range =
      fabric.add(where("A", Op::kInRange, Value(2.0), Value(4.0)));

  EXPECT_EQ(match(fabric, scratch, make_message({{"A", Value(2.0)}})),
            (std::vector<RowId>{wild, opaque, range}));
  EXPECT_EQ(match(fabric, scratch, make_message({{"A", Value(3.0)}})),
            (std::vector<RowId>{wild, range}));
  EXPECT_EQ(match(fabric, scratch, make_message({})),
            (std::vector<RowId>{wild}));
}

TEST(MatchFabric, EquivalentFiltersMergeWithoutLosingRows) {
  MatchFabricOptions options;
  options.shards = 2;
  options.rebuild_min = 4;  // Force early rebuilds so merging engages.
  MatchFabric fabric(options);
  MatchScratch scratch;
  std::vector<RowId> rows;
  for (int i = 0; i < 32; ++i) {
    rows.push_back(fabric.add(where("A", Op::kLe, Value(5.0))));
  }
  const auto& got = fabric.match(make_message({{"A", Value(5.0)}}), scratch);
  EXPECT_EQ(got, rows);

  const MatchFabric::Stats stats = fabric.stats();
  EXPECT_EQ(stats.live_rows, 32u);
  EXPECT_EQ(stats.live_units, 32u);
  EXPECT_GT(stats.equal_members, 0u);
  EXPECT_LT(stats.index_roots, 32u);
  EXPECT_GT(stats.compression(), 1.0);
}

TEST(MatchFabric, CoveredFiltersStillMatchExactly) {
  MatchFabricOptions options;
  options.shards = 2;
  options.rebuild_min = 4;
  MatchFabric fabric(options);
  MatchScratch scratch;
  // One wide root, many strictly narrower members.
  const RowId root = fabric.add(where("A", Op::kLt, Value(100.0)));
  std::vector<RowId> narrow;
  for (int i = 0; i < 16; ++i) {
    narrow.push_back(
        fabric.add(where("A", Op::kLt, Value(static_cast<double>(i + 1)))));
  }
  // A head at 50 hits the root and members 51.. none — only narrow rows
  // whose bound exceeds the value may appear.
  const auto& at_half = fabric.match(make_message({{"A", Value(8.5)}}), scratch);
  std::vector<RowId> expect{root};
  for (int i = 0; i < 16; ++i) {
    if (8.5 < static_cast<double>(i + 1)) expect.push_back(narrow[i]);
  }
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(at_half, expect);

  const MatchFabric::Stats stats = fabric.stats();
  EXPECT_GT(stats.covered_members, 0u);
  EXPECT_GT(stats.compression(), 1.0);

  // Removing the root must not take the members with it.
  fabric.remove(root);
  const auto& after = fabric.match(make_message({{"A", Value(0.5)}}), scratch);
  EXPECT_EQ(after, narrow);
}

TEST(MatchFabric, CoveringOffKeepsEveryRowARoot) {
  MatchFabricOptions options;
  options.covering = false;
  options.rebuild_min = 4;
  MatchFabric fabric(options);
  MatchScratch scratch;
  for (int i = 0; i < 16; ++i) {
    fabric.add(where("A", Op::kLe, Value(5.0)));
  }
  const MatchFabric::Stats stats = fabric.stats();
  EXPECT_EQ(stats.equal_members, 0u);
  EXPECT_EQ(stats.covered_members, 0u);
  EXPECT_EQ(stats.index_roots, 16u);
  EXPECT_EQ(match(fabric, scratch, make_message({{"A", Value(1.0)}})).size(),
            16u);
}

TEST(MatchFabric, RebuildFoldsTombstonesAndKeepsMatching) {
  MatchFabricOptions options;
  options.shards = 1;
  options.rebuild_min = 8;
  options.rebuild_divisor = 1;
  MatchFabric fabric(options);
  MatchScratch scratch;

  std::vector<RowId> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back(fabric.add(
        where("A", Op::kGe, Value(static_cast<double>(i % 10)))));
  }
  // Remove every even row; enough tombstones to trigger fold-away rebuilds.
  for (std::size_t i = 0; i < rows.size(); i += 2) fabric.remove(rows[i]);

  std::vector<RowId> expect;
  for (std::size_t i = 1; i < rows.size(); i += 2) {
    if (static_cast<double>(i % 10) <= 4.5) expect.push_back(rows[i]);
  }
  EXPECT_EQ(match(fabric, scratch, make_message({{"A", Value(4.5)}})), expect);

  const MatchFabric::Stats stats = fabric.stats();
  EXPECT_EQ(stats.live_rows, 100u);
  EXPECT_EQ(stats.total_rows, 200u);
  EXPECT_GT(stats.rebuilds, 0u);
  EXPECT_GT(stats.publications, stats.rebuilds);
}

TEST(MatchFabric, ActiveShardsEqualShardCountFromTheStart) {
  MatchFabricOptions options;
  options.shards = 4;
  MatchFabric fabric(options);
  fabric.add(where("A", Op::kGe, Value(0.0)));
  EXPECT_EQ(fabric.stats().active_shards, 4u);
}

TEST(MatchFabric, ScratchIsReusableAcrossFabricsOfOneDomain) {
  EpochDomain domain;
  MatchFabric a(MatchFabricOptions{}, &domain);
  MatchFabric b(MatchFabricOptions{}, &domain);
  MatchScratch scratch;
  const RowId ra = a.add(where("A", Op::kLt, Value(5.0)));
  const RowId rb = b.add(where("A", Op::kLt, Value(5.0)));
  const Message m = make_message({{"A", Value(1.0)}});
  EXPECT_EQ(match(a, scratch, m), (std::vector<RowId>{ra}));
  EXPECT_EQ(match(b, scratch, m), (std::vector<RowId>{rb}));
  EXPECT_EQ(&a.domain(), &domain);
}

TEST(MatchFabric, StatsCountDisjunctUnitsSeparately) {
  MatchFabric fabric;
  fabric.add(where("A", Op::kLt, Value(5.0)),
             {where("B", Op::kGt, Value(0.0))});
  const MatchFabric::Stats stats = fabric.stats();
  EXPECT_EQ(stats.live_rows, 1u);
  EXPECT_EQ(stats.live_units, 2u);
}

/// A 4-shard fabric that rebuilds on every second add and compiles on the
/// first hit, loaded with one hot covering root (X < 100 over eight
/// covered members) plus two equal "forcer" units (X >= 200) whose later
/// copies trigger rebuilds without touching the hot root's member list.
struct HotRootFixture {
  HotRootFixture() : fabric(options()) {
    add(where("X", Op::kLt, Value(100.0)));  // Root.
    for (int k = 1; k <= 8; ++k) {  // Covered members: the compile unit.
      add(where("X", Op::kLt, Value(static_cast<double>(k))));
    }
    add_forcer();
    add_forcer();
  }
  static MatchFabricOptions options() {
    MatchFabricOptions o;
    o.shards = 4;
    o.rebuild_min = 1;  // Rebuild on every second add: constant folds.
    o.compile_hot_hits = 1;
    return o;
  }
  void add(Filter f) {
    fabric.add(f);
    filters.push_back(std::move(f));
    alive.push_back(true);
  }
  void add_forcer() { add(where("X", Op::kGe, Value(200.0))); }
  void remove(RowId row) {
    alive[row] = false;
    fabric.remove(row);
  }
  std::vector<RowId> brute_force(const Message& m) const {
    std::vector<RowId> out;
    for (RowId r = 0; r < filters.size(); ++r) {
      if (alive[r] && filters[r].matches(m)) out.push_back(r);
    }
    return out;
  }

  MatchFabric fabric;
  MatchScratch scratch;
  std::vector<Filter> filters;
  std::vector<bool> alive;
  const Message probe = make_message({{"X", Value(0.5)}});
};

TEST(MatchFabric, RebuildReusesTheCachedProgramForAnUnchangedRoot) {
  // A rebuild recompiles every hot root; when the root's evaluated member
  // list is unchanged, it must keep the previous core's program instead of
  // building a new one.
  HotRootFixture fx;
  const std::vector<RowId> expect = fx.brute_force(fx.probe);
  ASSERT_EQ(expect.size(), 9u);
  EXPECT_EQ(match(fx.fabric, fx.scratch, fx.probe), expect);  // Heats.
  MatchFabric::Stats stats = fx.fabric.stats();
  EXPECT_EQ(stats.compiles, 1u);
  EXPECT_EQ(stats.compiled_roots, 1u);

  // Force a rebuild that leaves the hot root's member list unchanged.
  const std::size_t rebuilds = stats.rebuilds;
  fx.add_forcer();
  stats = fx.fabric.stats();
  ASSERT_GT(stats.rebuilds, rebuilds);
  EXPECT_EQ(stats.compiles, 1u);  // No recompile.
  EXPECT_EQ(stats.compiled_roots, 1u);

  EXPECT_EQ(match(fx.fabric, fx.scratch, fx.probe), expect);
  EXPECT_GE(fx.fabric.stats().vm_batch_evals, 1u);
}

TEST(MatchFabric, RebuildRecompilesARootWhoseMemberListChanged) {
  // The opposite case: a tombstoned covered member drops out of the hot
  // root's member list at the next rebuild, so the old program no longer
  // fits and exactly one fresh compile replaces it.
  HotRootFixture fx;
  EXPECT_EQ(match(fx.fabric, fx.scratch, fx.probe),
            fx.brute_force(fx.probe));  // Heats.
  MatchFabric::Stats stats = fx.fabric.stats();
  ASSERT_EQ(stats.compiles, 1u);

  fx.remove(3);  // A covered member (X < 3).
  const std::size_t rebuilds = fx.fabric.stats().rebuilds;
  fx.add_forcer();
  stats = fx.fabric.stats();
  ASSERT_GT(stats.rebuilds, rebuilds);
  EXPECT_EQ(stats.compiles, 2u);
  EXPECT_EQ(stats.compiled_roots, 1u);

  const std::vector<RowId> expect = fx.brute_force(fx.probe);
  ASSERT_EQ(expect.size(), 8u);
  EXPECT_EQ(match(fx.fabric, fx.scratch, fx.probe), expect);
  EXPECT_EQ(fx.fabric.stats().compiles, 2u);
}

TEST(MatchFabric, MultiAttributeLoadReachesEveryHashShard) {
  // Placement regression: a signature moved from before shard_of reads it
  // has an empty selective attribute and routes every unit to the fallback
  // shard.  Matches stay exact either way, so only occupancy shows it.
  MatchFabricOptions options;
  options.shards = 8;
  MatchFabric fabric(options);
  ChurnWorkloadConfig config;
  config.seed = 3;
  ChurnWorkload workload(config);
  for (int i = 0; i < 2000; ++i) fabric.add(workload.next_filter());

  const MatchFabric::Stats stats = fabric.stats();
  EXPECT_EQ(stats.active_shards, 8u);
  ASSERT_EQ(stats.shard_units.size(), 9u);  // [0] is the fallback shard.
  std::size_t total = stats.shard_units[0];
  for (std::size_t s = 1; s < stats.shard_units.size(); ++s) {
    EXPECT_GT(stats.shard_units[s], 0u) << "hash shard " << s;
    total += stats.shard_units[s];
  }
  EXPECT_EQ(total, stats.live_units);
  EXPECT_LT(stats.shard_units[0], stats.live_units / 2);
}

TEST(EpochDomain, RetireReclaimsOnlyPastPinnedEpochs) {
  EpochDomain domain;
  EpochDomain::Slot* slot = domain.acquire_slot();
  auto retired = std::make_shared<int>(7);
  std::weak_ptr<int> watch = retired;
  {
    EpochDomain::Pin pin(domain, *slot);
    domain.retire(std::move(retired));
    domain.try_reclaim();
    // The pin predates the retirement stamp; the object must survive.
    EXPECT_FALSE(watch.expired());
  }
  domain.try_reclaim();
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(domain.retired_count(), 0u);
  domain.release_slot(slot);
}

}  // namespace
}  // namespace bdps::matching
