// Counting-based subscription matching index.
//
// Brokers match every processed message against their subscription table
// (§4.2); with thousands of subscriptions a linear scan of all filters is
// the broker's hottest loop.  This index implements the classic counting
// algorithm (Yan & Garcia-Molina):
//
//   * every (attribute, comparison) pair keeps its predicates sorted by
//     operand, so all satisfied less-than/greater-than predicates form a
//     contiguous run found by binary search;
//   * equality predicates hash on the operand;
//   * a per-candidate counter tracks how many of its predicates matched —
//     a filter matches when the count reaches its predicate total.
//
// Hot-path layout: attribute lookup is a hash probe (heterogeneous
// string_view keys, no per-match allocation), the satisfied runs are flat
// id arrays scanned branch-free (inclusive bounds are folded into the
// sorted keys via nextafter at insert time), and the result buffer is
// reused across match() calls.  A match sets one bit per hit external id
// in the scratch's hit bitmap — a disjunct that fires twice sets the same
// bit — and one scan over ceil(size/64) words then writes the ids in
// ascending order, zeroing each word it reads, so no sort and no dedup
// pass run.  That scan can AND each word with a caller's admit bitmap
// (the routing fabric's per-publisher row guard), so rows the caller
// would drop are never written out.
//
// Filters with non-indexable pieces (ranges over mixed types, non-finite
// operands, etc.) fall back to direct evaluation, so the index is exactly
// equivalent to brute force (property-tested in
// tests/message/index_test.cpp) for messages whose attribute names are
// unique — Message::find consults only the first occurrence of a repeated
// name, while the counting pass sees every occurrence, so heads with
// duplicate names are outside the equivalence contract (as before this
// layout).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "message/filter.h"
#include "message/message.h"

namespace bdps {

/// Transparent hash so unordered_map lookups accept string_view / char*
/// without materialising a std::string key.
struct StringViewHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

class SubscriptionIndex {
 public:
  using EntryId = std::size_t;

  /// Caller-owned match state, for concurrent readers over one *finalized*
  /// index (snapshot matching: many reactor workers share an immutable
  /// index, each bringing its own Scratch).  A Scratch adapts to any index
  /// it is handed — arrays grow on demand, the per-call generation bump
  /// makes stale counters from another index (or a previous call)
  /// unreadable, and every match leaves `hits` all zero — so one Scratch
  /// can serve indexes of any size in turn.
  struct Scratch {
    std::vector<std::uint64_t> counter_gen;
    std::vector<std::uint32_t> candidates;
    /// One bit per external id; all zero between match() calls.
    std::vector<std::uint64_t> hits;
    std::vector<EntryId> result;
    std::uint32_t generation = 0;
  };

  SubscriptionIndex() = default;

  /// Registers a filter; returns a dense id that match() reports back.
  EntryId add(const Filter& filter);

  /// Registers an additional disjunct for an existing id: the id then
  /// matches when *any* of its registered conjunctive filters matches —
  /// OR-queries on top of the conjunctive counting index.
  void add_disjunct(EntryId id, const Filter& filter);

  /// Number of distinct ids (not internal disjuncts).
  std::size_t size() const { return external_count_; }

  /// Sorts the numeric runs and builds every lazy cache now, so that the
  /// const match(message, scratch) overload never has to mutate the index.
  /// Call after the last add when the index is handed to concurrent
  /// readers; add()/add_disjunct() invalidate it again.
  void finalize();
  bool finalized() const {
    return sorted_ && direct_only_cache_valid_ && entry_map_valid_;
  }

  /// Returns the ids of all subscriptions matching `message`, each exactly
  /// once (even when several disjuncts fire), in ascending id order (the
  /// canonical match order every engine emits, keeping order-sensitive
  /// floating-point consumers bitwise comparable across engines).  The
  /// reference points into a scratch buffer reused by the next match()
  /// call on this index; copy it to keep it.
  const std::vector<EntryId>& match(const Message& message) const;

  /// Pure-read variant against caller-owned scratch: requires finalized().
  /// Touches no index state, so any number of threads may match the same
  /// index concurrently as long as each brings its own Scratch.  A non-null
  /// `admit` keeps only the ids whose bit is set in it (bit i of word i/64
  /// admits id i; at least ceil(size()/64) words), still ascending.
  /// Returns a reference to scratch.result.
  const std::vector<EntryId>& match(const Message& message, Scratch& scratch,
                                    const std::uint64_t* admit = nullptr) const;

  /// Direct evaluation of one registered id across its disjuncts (used by
  /// tests and fallback paths); only this id's filters are consulted.
  /// Read-only (and thus thread-safe) once finalized.
  bool matches_entry(EntryId id, const Message& message) const;

 private:
  struct Entry {
    Filter filter;
    // Number of predicates resolved through the numeric/equality indexes;
    // the remainder (non-indexable) are re-evaluated directly.
    std::size_t indexed_predicates = 0;
    std::size_t direct_predicates = 0;
    // The user-visible id this internal (disjunct) entry belongs to.
    EntryId external = 0;
  };

  /// Internal (disjunct) entry ids are stored 32-bit in the hot scan
  /// arrays to halve their cache footprint.
  using InternalId = std::uint32_t;

  struct AttributeIndex {
    // Build-side predicate lists: (adjusted key, internal id).  Inclusive
    // bounds are pre-folded into the key (kLe stores nextafter(c, +inf),
    // kGe stores nextafter(c, -inf)), so the match scan needs no
    // per-element inclusivity branch or key re-check.
    std::vector<std::pair<double, InternalId>> less_build;
    std::vector<std::pair<double, InternalId>> greater_build;
    // Match-side structure-of-arrays mirrors, rebuilt by ensure_sorted():
    // for value v the satisfied less-than set is the suffix with key > v,
    // the satisfied greater-than set is the prefix with key < v.
    std::vector<double> less_keys;
    std::vector<InternalId> less_entries;
    std::vector<double> greater_keys;
    std::vector<InternalId> greater_entries;
    // Equality on doubles is keyed by exact value — the workload draws
    // operands and attributes from the same generator when they are meant
    // to collide.
    std::unordered_map<double, std::vector<InternalId>> numeric_eq;
    std::unordered_map<std::string, std::vector<InternalId>, StringViewHash,
                       std::equal_to<>>
        string_eq;
  };

  void index_predicate(const Predicate& predicate, InternalId internal_id,
                       Entry& entry);
  void add_internal(const Filter& filter, EntryId external);
  void rebuild_direct_only_cache() const;
  void rebuild_entry_map() const;
  void ensure_sorted() const;
  /// `admit` null admits every id.
  const std::vector<EntryId>& match_core(const Message& message,
                                         Scratch& scratch,
                                         const std::uint64_t* admit) const;

  std::size_t external_count_ = 0;

  std::vector<Entry> entries_;
  // Internal (disjunct) entry ids per external id; lets matches_entry touch
  // only the queried id's filters.  Rebuilt lazily (matches_entry is a
  // test/fallback path) so bulk adds stay allocation-light.
  mutable std::vector<std::vector<EntryId>> internal_by_external_;
  mutable bool entry_map_valid_ = true;
  // Hot-path SoA mirrors of entries_, indexed by internal id: the counting
  // pass and the candidate pass never touch the Filter-carrying Entry
  // structs unless a direct re-evaluation is actually required.
  std::vector<std::uint32_t> required_;     // indexed_predicates
  std::vector<std::uint32_t> external_of_;  // owning external id
  std::vector<std::uint8_t> needs_direct_;  // direct_predicates > 0
  // Sorted lazily (ensure_sorted) so bulk adds stay O(n log n) total.
  mutable std::unordered_map<std::string, AttributeIndex, StringViewHash,
                             std::equal_to<>>
      attributes_;
  mutable bool sorted_ = true;
  // Entries whose filters are empty (wildcards) match every message.
  std::vector<EntryId> wildcards_;
  // Entries with no indexable predicate; rebuilt lazily after adds.
  mutable std::vector<EntryId> direct_only_;
  mutable bool direct_only_cache_valid_ = true;
  // Internal scratch backing the classic match() overload; the per-entry
  // word packs (generation << 32 | count), so a bump is a single load/store
  // with lazy reset.  Mutable so match() stays const; external-scratch
  // callers never touch it.
  mutable Scratch scratch_;
};

}  // namespace bdps
