// Sharded, snapshot-published, covering-compressed matching fabric.
//
// A store of ~10^6 subscriptions under churn cannot live in one mutable
// counting index: every add re-sorts shared predicate runs, every match
// races every add, and near-duplicate filters (the common case — popular
// attributes draw popular thresholds) each pay full index freight.  Each
// row is one conjunctive filter.  The fabric splits the problem three ways:
//
//   * SHARDING — filters are partitioned by hash of their most selective
//     indexed attribute (FilterSignature::selective_attribute); filters
//     with no indexable constraint land in a dedicated fallback shard.
//     An add or remove touches exactly one shard; a match fans across all
//     shards reusing one caller-owned scratch.
//
//   * SNAPSHOT READS — each shard publishes an immutable ShardSnapshot
//     through an atomic pointer guarded by the fabric's EpochDomain
//     (snapshot.h).  Readers pin an epoch once per match and never take a
//     lock; writers rebuild or extend off the read path and swap.  A
//     snapshot is a finalized core counting index over *covering roots*
//     plus a small persistent-list overlay of recent adds; when the
//     overlay outgrows max(rebuild_min, min(kRebuildCap,
//     core/rebuild_divisor)) the writer folds everything into a fresh core
//     (amortised O(1) index work per add).  Removals tombstone the unit's atomic alive flag — visible
//     immediately, reclaimed at the next rebuild.
//
//   * COVERING/MERGING — a new filter provably implied by an existing
//     root (FilterSignature::covers, exact over the interval+string
//     conjunct language, conservative otherwise) is stored as a *member*
//     of that root instead of a new index entry: the root row acts as the
//     covering row, its member list as the refcount.  Signature-equivalent
//     members are emitted on a root hit with no re-evaluation at all;
//     strictly-covered members are direct-evaluated only when their root
//     hits.  Because every member still emits its own RowId, merging is
//     loss-free for row-exact consumers; the compression shows up as index
//     entries per live row.
//
//   * TIERED COMPILATION — covered members are the read-side cost at
//     scale: every hit on a popular root re-evaluates its member list
//     through the generic Filter::matches tree.  Roots start on that
//     interpreter; once a root's hit counter passes compile_hot_hits its
//     evaluated members are lowered into one flat PredicateProgram
//     (program/program.h — per-attribute slots, SoA interval bounds,
//     interned string ids, counting batch evaluation), and subsequent
//     hits evaluate all members in a single pass.  Compilation happens
//     off the read path at exactly two points: inline at snapshot
//     rebuilds, and by a reader that saw a hot interpreted root and wins
//     the shard's try_lock (a losing reader simply asks again on its next
//     hit).  Programs ride the snapshots, so EpochDomain retire reclaims
//     them with the core they were compiled for, and add/remove stays
//     cheap under churn (cold filters never pay compile costs).
//
//     A rebuild does not recompile what it can reuse: a root that the
//     previous core had compiled, with the very same evaluated member
//     units (pointer-identical, program order), keeps its program.  Only
//     roots whose member list changed — a member folded in from the
//     overlay, or a tombstoned one dropped — are compiled afresh.
//
//     Evaluation is batched per message: match() resolves the head into a
//     hash-probed SlotValues view once and every compiled program in
//     every shard reads its slots from that view (program slots carry
//     precomputed name hashes), and the programs' inner loops run on the
//     runtime-dispatched SIMD kernels (program/simd.h).
//
// match() returns row ids in ascending order, each once (a row is one unit,
// and a snapshot holds each unit in exactly one place) — the canonical
// match order SubscriptionIndex emits too, so the two are byte-comparable.
//
// Users: the fabric is the single million-row matching store, judged alone
// by perfbench's match_churn, tools/match_scaling and the micro benches.
// RoutingFabric's per-broker tables do not use it: they hold at most about
// a thousand rows and never churn, where one finalized counting index per
// table matches and builds faster (PERF.md, "Routing tables on the counting
// index").
//
// Thread-safety: match() is lock-free and safe from any number of threads,
// each with its own MatchScratch.  add()/remove() serialise on internal
// mutexes and may run concurrently with matches (a concurrent match sees
// the row either way — both linearisations are valid).  Unit storage is
// append-only for the fabric's lifetime: removed rows stop matching but
// their memory is reclaimed only by shard rebuilds' root lists, not
// returned to the allocator (bounded by total adds).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "matching/program/program.h"
#include "matching/signature.h"
#include "matching/snapshot.h"
#include "message/index.h"

namespace bdps::matching {

using RowId = std::size_t;

struct MatchFabricOptions {
  /// Hash shards, plus one implicit fallback shard for non-indexable
  /// filters (shard index 0).
  std::size_t shards = 8;
  /// Enables covering/equivalence merging; off, every filter is its own
  /// index root (the differential-testing configuration).
  bool covering = true;
  /// Overlay length that triggers a core rebuild:
  /// max(rebuild_min, min(kRebuildCap, core_size / rebuild_divisor)).
  /// rebuild_min bounds rebuild churn for small shards, rebuild_divisor
  /// keeps total rebuild work O(divisor * adds), kRebuildCap bounds the
  /// per-match overlay walk for huge shards.
  std::size_t rebuild_min = 64;
  std::size_t rebuild_divisor = 8;
  /// Compile tier: a core root whose hit counter reaches this many match
  /// hits gets its evaluated members lowered into a PredicateProgram
  /// (program/program.h) — at the next rebuild, or by a reader
  /// volunteering through a try_lock (never blocking other readers).
  /// 0 disables compilation; members then always interpret through
  /// Filter::matches.
  std::size_t compile_hot_hits = 4;
  /// Roots with fewer evaluated (non-equal) members than this stay on the
  /// interpreter: below the crossover the per-hit program dispatch costs
  /// more than the member walk it replaces (bench/micro_filter_program).
  std::size_t compile_min_members = 4;
};

/// Root candidates inspected per cover probe before conservatively giving
/// up (a missed cover only costs compression, never correctness).
inline constexpr std::size_t kMaxCoverProbe = 32;
/// Upper clamp of the overlay length that triggers a core rebuild (see
/// MatchFabricOptions::rebuild_min).  It matters at 10^6 rows: once it
/// clamps the geometric threshold (core > cap * divisor per shard), total
/// rebuild work degrades from O(divisor * adds) to O(adds^2 / cap) — 16384
/// defers that onset to ~10M subscriptions at the default shard count, and
/// the longer overlay it admits is cheap to walk (root-mark gated; see
/// match()).
inline constexpr std::size_t kRebuildCap = 16384;

class MatchFabric;

/// Caller-owned (one per reader thread) match state: the per-shard index
/// scratch, root hit marks, the result buffer, and this reader's epoch
/// slot.  Binds to the first fabric it matches against, serves only that
/// fabric, and must not outlive it.
class MatchScratch {
 public:
  MatchScratch() = default;
  ~MatchScratch();
  MatchScratch(const MatchScratch&) = delete;
  MatchScratch& operator=(const MatchScratch&) = delete;

 private:
  friend class MatchFabric;

  void bind(EpochDomain& domain);

  SubscriptionIndex::Scratch index_scratch_;
  std::vector<std::uint32_t> root_gen_;  // Hit roots, per shard visit.
  std::uint32_t root_generation_ = 0;
  std::vector<RowId> result_;
  program::ProgramEval program_eval_;  // Compiled-root batch evaluation.
  /// Message head resolved once per match() and shared by every compiled
  /// program across every shard (program.h: the batch entry point).
  program::SlotValues slot_values_;
  EpochDomain* domain_ = nullptr;
  EpochDomain::Slot* slot_ = nullptr;
};

class MatchFabric {
 public:
  struct Stats {
    std::size_t live_rows = 0;
    std::size_t total_rows = 0;       // Ids ever issued.
    std::size_t live_units = 0;       // Units alive (one per live row).
    std::size_t index_roots = 0;      // Core roots + standalone overlay.
    std::size_t equal_members = 0;    // Merged with zero eval cost.
    std::size_t covered_members = 0;  // Evaluated only on root hits.
    std::size_t overlay_units = 0;
    std::size_t rebuilds = 0;
    std::size_t publications = 0;
    /// Hash shards filters fan across (always MatchFabricOptions::shards).
    std::size_t active_shards = 0;
    /// Live units per shard, by shard index ([0] is the fallback shard).
    std::vector<std::size_t> shard_units;
    // ---- Compile tier ----
    std::size_t compiled_roots = 0;  // Roots with a live program.
    std::size_t compiles = 0;        // Programs actually built, cumulative.
    double compile_ms = 0.0;         // Wall time spent compiling.
    /// Member verdicts produced by compiled programs vs. by the
    /// Filter::matches interpreter (covered members + overlay + program
    /// fallbacks), cumulative over every match() call.
    std::uint64_t vm_member_evals = 0;
    std::uint64_t vm_fallback_evals = 0;
    std::uint64_t interp_member_evals = 0;
    /// Compiled-program batch evaluations (one per compiled root hit),
    /// cumulative — each resolves its slots from the shared SlotValues.
    std::uint64_t vm_batch_evals = 0;
    /// Live units per index entry — the covering compression ratio.
    double compression() const {
      return index_roots == 0
                 ? 1.0
                 : static_cast<double>(live_units) /
                       static_cast<double>(index_roots);
    }
  };

  explicit MatchFabric(MatchFabricOptions options = {});
  ~MatchFabric();
  MatchFabric(const MatchFabric&) = delete;
  MatchFabric& operator=(const MatchFabric&) = delete;

  /// Registers a subscription (one conjunctive filter); returns a dense
  /// RowId.  Ids are never reused.
  RowId add(const Filter& filter);

  /// Tombstones a row: it stops matching immediately; its storage is
  /// folded away by the owning shards' next rebuilds.  Idempotent.
  void remove(RowId row);

  /// Ids issued so far (== the exclusive upper bound of returned RowIds).
  std::size_t row_bound() const {
    return row_bound_.load(std::memory_order_acquire);
  }

  /// Row ids matching `message`, ascending, each exactly once.  Lock-free;
  /// returns a reference into `scratch`.
  const std::vector<RowId>& match(const Message& message,
                                  MatchScratch& scratch) const;

  Stats stats() const;

 private:
  struct Unit {
    Unit(Filter f, FilterSignature s, RowId r)
        : filter(std::move(f)), sig(std::move(s)), row(r) {}
    Filter filter;
    FilterSignature sig;
    RowId row;
    std::atomic<bool> alive{true};
    /// Root-hit counter driving the compile tier.  Lives on the unit, not
    /// the root, so heat survives rebuilds (root ordinals reshuffle, the
    /// covering unit persists).  Bumped racily below compile_hot_hits and
    /// left alone after (lost updates only delay compilation).  Mutable:
    /// readers reach it through the snapshot's const Unit pointers.
    mutable std::atomic<std::uint32_t> hits{0};
  };

  struct CoreMember {
    const Unit* unit;
    bool equal;  // Signature-equivalent to the root: emit without eval.
  };
  /// One core index entry: the covering unit and the rows it subsumes.
  struct CoreRoot {
    const Unit* unit;
    std::vector<CoreMember> members;
    /// Members with equal == false — the compile unit's size (filled once
    /// after the rebuild's member assignment).
    std::uint32_t eval_members = 0;
  };
  struct CoreIndex {
    SubscriptionIndex index;  // Finalized; EntryId k <-> roots[k].
    std::vector<CoreRoot> roots;
  };
  /// Programs for a core's roots, by root ordinal (null = interpreted).
  /// Shared between successive snapshots of the same core: a hot-compile
  /// republish swaps in a new ProgramSet without touching core or overlay.
  struct ProgramSet {
    std::vector<std::shared_ptr<const program::PredicateProgram>> programs;
  };
  /// Persistent (newest-first) overlay list: sharing the tail lets a
  /// writer publish an extended overlay in O(1) without copying.
  struct OverlayNode {
    std::shared_ptr<const OverlayNode> next;
    const Unit* unit;
    std::int32_t core_root;  // >= 0: member of core root; -1: standalone.
    bool equal;
  };
  struct ShardSnapshot {
    ShardSnapshot() = default;
    ~ShardSnapshot();  // Unlinks the overlay iteratively (no deep recursion).
    std::shared_ptr<const CoreIndex> core;  // Null until the first rebuild.
    std::shared_ptr<const OverlayNode> overlay;
    std::size_t overlay_len = 0;
    std::shared_ptr<const ProgramSet> programs;  // Null = all interpreted.
  };
  struct Shard {
    std::mutex mu;  // Writers only; readers go through `published`.
    std::atomic<const ShardSnapshot*> published{nullptr};
    std::shared_ptr<const ShardSnapshot> owner;  // Keeps *published alive.
    std::deque<Unit> units;  // Append-only, address-stable.
    std::size_t live_units = 0;
    std::size_t dead_since_rebuild = 0;
    // Writer-side probe maps over the current core's roots.
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>>
        roots_by_hash;
    std::unordered_map<std::string, std::vector<std::uint32_t>>
        roots_by_anchor;
    std::size_t rebuilds = 0;
    std::size_t publications = 0;
    std::size_t compiles = 0;
    std::uint64_t compile_ns = 0;
  };

  std::size_t shard_of(const FilterSignature& sig) const;
  /// Root to merge `sig` under (shard.mu held): equivalence by hash first,
  /// then a bounded cover probe over roots anchored at each of sig's
  /// constrained attributes (plus "" for wildcard roots).  -1 when none.
  static std::int32_t find_root(const Shard& shard,
                                const std::vector<CoreRoot>& roots,
                                const FilterSignature& sig, bool* equal);
  /// Appends the row's unit to its shard and publishes it; returns the unit.
  Unit* install_unit(std::size_t shard_index, const Filter& filter,
                     FilterSignature sig, RowId row);
  void rebuild_locked(Shard& shard);
  /// Root is hot enough and big enough to pay for a program.
  bool wants_program(const CoreRoot& root) const;
  /// Freshly compiled program for `root`'s evaluated members, timed into
  /// the shard counters.  Requires shard.mu.
  std::shared_ptr<const program::PredicateProgram> compile_root_locked(
      Shard& shard, const CoreRoot& root) const;
  /// Reader-volunteered compile point: builds programs for every hot,
  /// still-interpreted root of the current snapshot and republishes with
  /// the core and overlay shared.  Requires shard.mu; const because
  /// readers call it from match() (the fabric's logical state — the row
  /// set — is untouched).
  void compile_hot_locked(Shard& shard) const;
  void publish_locked(Shard& shard,
                      std::shared_ptr<const ShardSnapshot> snapshot) const;
  std::size_t overlay_threshold(std::size_t core_size) const;

  MatchFabricOptions options_;
  /// Declared before the shards, so it outlives every snapshot they hold.
  /// Mutable: the const match() binds reader slots to it, and its compile
  /// handoff retires snapshots.
  mutable EpochDomain domain_;
  std::vector<std::unique_ptr<Shard>> shards_;  // [0] is the fallback.

  mutable std::mutex rows_mu_;
  /// Row -> its (shard, unit).
  std::vector<std::pair<std::uint32_t, Unit*>> rows_;
  std::size_t live_rows_ = 0;
  std::atomic<std::size_t> row_bound_{0};
  /// Reader-side tier tallies (one relaxed add per counter per match).
  mutable std::atomic<std::uint64_t> vm_member_evals_{0};
  mutable std::atomic<std::uint64_t> vm_fallback_evals_{0};
  mutable std::atomic<std::uint64_t> interp_member_evals_{0};
  mutable std::atomic<std::uint64_t> vm_batch_evals_{0};
};

}  // namespace bdps::matching
