// Differential gate: the sharded/snapshot/covering fabric must be
// set-identical (and, being canonical, sequence-identical) to brute-force
// filter evaluation across a randomized corpus of filters, messages and
// churn interleavings.  The churn workload's Zipf pools manufacture the
// adversarial cases on purpose: exact duplicates (equivalence merges),
// wide single-bound roots (cover chains), shared thresholds (boundary
// collisions at the nextafter folds).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "matching/program/simd.h"
#include "matching/sharded_index.h"
#include "workload/generator.h"

namespace bdps::matching {
namespace {

struct BruteRow {
  Filter filter;
  bool alive = true;
};

std::vector<RowId> brute_force(const std::vector<BruteRow>& rows,
                               const Message& m) {
  std::vector<RowId> out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].alive && rows[i].filter.matches(m)) out.push_back(i);
  }
  return out;
}

/// (seed, shards, covering, rebuild_min, compile_hits, kernel) — shards
/// == 1 exercises the degenerate everything-in-one-shard layout, tiny
/// rebuild_min exercises the rebuild/fold path constantly, and
/// compile_hits > 0 runs the compiled-program tier (hits=1 compiles every
/// matched root, so churn keeps flipping roots across the hot threshold
/// and programs are rebuilt/dropped along the rebuild cadence).  A
/// non-empty kernel forces that SIMD dispatch-table entry for the whole
/// run (skipped when this machine cannot run it), so the brute-force
/// differential covers every kernel, not just the auto-dispatched one.
using FuzzParam = std::tuple<std::uint64_t, std::size_t, bool, std::size_t,
                             std::size_t, std::string>;

class MatchFabricFuzz : public ::testing::TestWithParam<FuzzParam> {
 protected:
  ~MatchFabricFuzz() override { program::simd::force_kernel(nullptr); }
};

TEST_P(MatchFabricFuzz, AgreesWithBruteForceUnderChurn) {
  const auto [seed, shards, covering, rebuild_min, compile_hits, kernel] =
      GetParam();
  if (!kernel.empty() && !program::simd::force_kernel(kernel.c_str())) {
    GTEST_SKIP() << "kernel '" << kernel << "' not dispatchable here";
  }

  MatchFabricOptions options;
  options.shards = shards;
  options.covering = covering;
  options.rebuild_min = rebuild_min;
  options.compile_hot_hits = compile_hits;
  // Compile even two-member roots so programs carry as much of the match
  // as possible when the tier is on (opaque remainders and boundary folds
  // all route through evaluate()).
  options.compile_min_members = compile_hits > 0 ? 1 : 4;
  MatchFabric fabric(options);
  MatchScratch scratch;

  ChurnWorkloadConfig config;
  config.seed = seed;
  config.attribute_pool = 12;  // Small pools: collisions are the point.
  config.threshold_pool = 8;
  config.message_attributes = 5;
  ChurnWorkload workload(config);

  std::vector<BruteRow> rows;
  std::vector<RowId> live;  // Row ids alive, for victim lookup.

  for (int op_index = 0; op_index < 500; ++op_index) {
    const ChurnOp op = workload.next_op(/*remove_fraction=*/0.3, live.size());
    if (op.kind == ChurnOp::Kind::kRemove) {
      const RowId victim = live[op.victim];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(op.victim));
      fabric.remove(victim);
      rows[victim].alive = false;
    } else {
      const RowId id = fabric.add(op.filter);
      ASSERT_EQ(id, rows.size());
      live.push_back(id);
      rows.push_back(BruteRow{op.filter});
    }

    // Probe after every mutation burst; every probe compares the full
    // match sequence (ids ascending on both sides).
    if (op_index % 8 != 7) continue;
    for (int probe = 0; probe < 4; ++probe) {
      const Message m = workload.next_message();
      const auto& got = fabric.match(m, scratch);
      ASSERT_EQ(got, brute_force(rows, m))
          << "op " << op_index << " probe " << probe << " seed " << seed;
    }
  }

  // Every merge class must account for every live unit (no row lost to
  // compression bookkeeping).
  const MatchFabric::Stats stats = fabric.stats();
  EXPECT_EQ(stats.live_rows, live.size());
  EXPECT_EQ(stats.total_rows, rows.size());
  if (covering) {
    EXPECT_GE(stats.compression(), 1.0);
  } else {
    EXPECT_EQ(stats.equal_members + stats.covered_members, 0u);
  }
  if (compile_hits == 1 && covering) {
    // hits=1 + min_members=1: every probe burst re-heats its roots, so the
    // tier must actually have engaged (otherwise the corpus silently
    // stopped covering the compiled path).  Covering-off roots have no
    // evaluated members, hence nothing to compile.
    EXPECT_GT(stats.compiles, 0u);
    EXPECT_GT(stats.vm_member_evals, 0u);
  } else if (compile_hits == 0 || !covering) {
    EXPECT_EQ(stats.compiles, 0u);
    EXPECT_EQ(stats.vm_member_evals, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MatchFabricFuzz,
    ::testing::Values(
        FuzzParam{1, 8, true, 64, 0, ""}, FuzzParam{2, 8, false, 64, 0, ""},
        FuzzParam{3, 1, true, 4, 0, ""}, FuzzParam{4, 1, false, 4, 0, ""},
        FuzzParam{5, 3, true, 8, 0, ""}, FuzzParam{6, 16, true, 16, 0, ""},
        FuzzParam{7, 2, true, 4, 0, ""}, FuzzParam{8, 4, false, 8, 0, ""},
        // Compiled tier on: hits=1 compiles everything ever matched,
        // hits=3 keeps roots flipping across the threshold under churn.
        FuzzParam{9, 8, true, 64, 1, ""}, FuzzParam{10, 1, true, 4, 1, ""},
        FuzzParam{11, 4, true, 8, 3, ""}, FuzzParam{12, 8, false, 16, 1, ""},
        FuzzParam{13, 2, true, 4, 2, ""}, FuzzParam{14, 16, true, 32, 1, ""},
        // Both kernels forced through the compiled tier (an avx2 run is
        // skipped at runtime on a host that cannot dispatch it).
        FuzzParam{15, 4, true, 8, 1, "portable"},
        FuzzParam{16, 8, true, 16, 1, "avx2"},
        FuzzParam{17, 2, true, 4, 1, "avx2"},
        FuzzParam{18, 4, true, 8, 2, "portable"}),
    [](const ::testing::TestParamInfo<FuzzParam>& info) {
      const std::string& kernel = std::get<5>(info.param);
      return "seed" + std::to_string(std::get<0>(info.param)) + "_shards" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_cover" : "_nocover") + "_rb" +
             std::to_string(std::get<3>(info.param)) + "_hits" +
             std::to_string(std::get<4>(info.param)) +
             (kernel.empty() ? "" : "_" + kernel);
    });

/// The workload generator itself must be reproducible: two instances of
/// the same config emit identical streams (the bench and the scaling probe
/// rely on this to describe their corpora by config alone).
TEST(ChurnWorkload, DeterministicAcrossInstances) {
  ChurnWorkloadConfig config;
  config.seed = 42;
  ChurnWorkload a(config);
  ChurnWorkload b(config);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_filter().to_string(), b.next_filter().to_string());
    const Message ma = a.next_message();
    const Message mb = b.next_message();
    ASSERT_EQ(ma.head().size(), mb.head().size());
    for (std::size_t k = 0; k < ma.head().size(); ++k) {
      EXPECT_EQ(ma.head()[k].name, mb.head()[k].name);
      EXPECT_EQ(ma.head()[k].value.to_string(), mb.head()[k].value.to_string());
    }
  }
}

/// Zipf sampling is head-heavy and in-range.
TEST(ZipfSampler, SkewsTowardLowRanks) {
  ZipfSampler zipf(64, 1.1);
  Rng rng(7);
  std::vector<std::size_t> counts(64, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t k = zipf.sample(rng);
    ASSERT_LT(k, 64u);
    ++counts[k];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000u / 10);  // Rank 0 draws far above uniform share.
}

}  // namespace
}  // namespace bdps::matching
