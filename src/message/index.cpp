#include "message/index.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace bdps {

SubscriptionIndex::EntryId SubscriptionIndex::add(const Filter& filter) {
  const EntryId external = external_count_++;
  add_internal(filter, external);
  return external;
}

void SubscriptionIndex::add_disjunct(EntryId id, const Filter& filter) {
  add_internal(filter, id);
}

void SubscriptionIndex::add_internal(const Filter& filter, EntryId external) {
  const EntryId id = entries_.size();
  entries_.push_back(Entry{filter, 0, 0, external});
  Entry& entry = entries_.back();

  if (filter.empty()) {
    wildcards_.push_back(id);
  } else {
    for (const auto& predicate : filter.predicates()) {
      index_predicate(predicate, static_cast<InternalId>(id), entry);
    }
    if (entry.indexed_predicates == 0) {
      // Never touched by the counting pass; must be scanned directly.
      direct_only_cache_valid_ = false;
    }
  }

  required_.push_back(static_cast<std::uint32_t>(entry.indexed_predicates));
  external_of_.push_back(static_cast<std::uint32_t>(external));
  needs_direct_.push_back(entry.direct_predicates > 0 ? 1 : 0);
  // Numeric predicate lists are (re)sorted lazily on the next match();
  // sorting per add would make bulk installation quadratic.
  sorted_ = false;
}

void SubscriptionIndex::finalize() {
  ensure_sorted();
  rebuild_direct_only_cache();
}

void SubscriptionIndex::ensure_sorted() const {
  if (sorted_) return;
  auto by_key = [](const std::pair<double, InternalId>& a,
                   const std::pair<double, InternalId>& b) {
    return a.first < b.first;
  };
  auto rebuild = [&](std::vector<std::pair<double, InternalId>>& build,
                     std::vector<double>& keys,
                     std::vector<InternalId>& entries) {
    std::sort(build.begin(), build.end(), by_key);
    keys.clear();
    entries.clear();
    keys.reserve(build.size());
    entries.reserve(build.size());
    for (const auto& [key, id] : build) {
      keys.push_back(key);
      entries.push_back(id);
    }
  };
  for (auto& [name, attr_index] : attributes_) {
    (void)name;
    rebuild(attr_index.less_build, attr_index.less_keys,
            attr_index.less_entries);
    rebuild(attr_index.greater_build, attr_index.greater_keys,
            attr_index.greater_entries);
  }
  sorted_ = true;
}

void SubscriptionIndex::index_predicate(const Predicate& predicate,
                                        InternalId id, Entry& entry) {
  // String-operand orderings, ranges and non-finite operands go to the
  // direct path; finite numeric comparisons and both equality types are
  // indexable.  (Non-finite thresholds would break the nextafter key
  // folding below, and NaN never hash-matches — direct evaluation keeps
  // the index exactly equivalent to brute force.)
  const bool indexable_operand =
      predicate.operand.is_number() &&
      std::isfinite(predicate.operand.as_double());
  switch (predicate.op) {
    case Op::kLt:
    case Op::kLe:
      if (indexable_operand) {
        // Satisfied iff key > v, where kLe's closed bound becomes the
        // half-open key nextafter(c, +inf): c >= v  <=>  nextafter(c) > v.
        const double c = predicate.operand.as_double();
        const double key =
            predicate.op == Op::kLe
                ? std::nextafter(c, std::numeric_limits<double>::infinity())
                : c;
        attributes_[predicate.attribute].less_build.emplace_back(key, id);
        ++entry.indexed_predicates;
        return;
      }
      break;
    case Op::kGt:
    case Op::kGe:
      if (indexable_operand) {
        // Satisfied iff key < v; kGe stores nextafter(c, -inf).
        const double c = predicate.operand.as_double();
        const double key =
            predicate.op == Op::kGe
                ? std::nextafter(c, -std::numeric_limits<double>::infinity())
                : c;
        attributes_[predicate.attribute].greater_build.emplace_back(key, id);
        ++entry.indexed_predicates;
        return;
      }
      break;
    case Op::kEq:
      if (indexable_operand) {
        attributes_[predicate.attribute]
            .numeric_eq[predicate.operand.as_double()]
            .push_back(id);
        ++entry.indexed_predicates;
        return;
      }
      if (predicate.operand.is_string()) {
        attributes_[predicate.attribute]
            .string_eq[predicate.operand.as_string()]
            .push_back(id);
        ++entry.indexed_predicates;
        return;
      }
      break;
    case Op::kNe:
    case Op::kInRange:
      break;
  }
  ++entry.direct_predicates;
}

const std::vector<SubscriptionIndex::EntryId>& SubscriptionIndex::match(
    const Message& message) const {
  ensure_sorted();
  rebuild_direct_only_cache();
  return match_core(message, scratch_);
}

const std::vector<SubscriptionIndex::EntryId>& SubscriptionIndex::match(
    const Message& message, Scratch& scratch) const {
  // The const overloads must never fall back to the lazy (mutating) cache
  // rebuilds — finalize() is the builder's hand-off point to readers.
  assert(finalized() &&
         "SubscriptionIndex::match(message, scratch) requires finalize()");
  return match_core(message, scratch);
}

void SubscriptionIndex::match_bits(const Message& message, Scratch& scratch,
                                   std::vector<std::uint64_t>& bits) const {
  assert(finalized() &&
         "SubscriptionIndex::match_bits requires finalize()");
  bits.assign((external_count_ + 63) / 64, 0);
  mark(message, scratch, bits.data());
}

const std::vector<SubscriptionIndex::EntryId>& SubscriptionIndex::match_core(
    const Message& message, Scratch& scratch) const {
  const std::size_t words = (external_count_ + 63) / 64;
  if (scratch.hits.size() < words) scratch.hits.resize(words, 0);
  std::uint64_t* const hits = scratch.hits.data();
  mark(message, scratch, hits);

  // Canonical ascending-id order, read off the hit bitmap word by word
  // (each word is zeroed as it is read, so the scratch leaves clean).
  // Matched ids feed order-sensitive floating-point reductions (kernel
  // scoring sums, the simulator's matched-price totals), so every matching
  // engine — this index, the sharded fabric — must emit in one agreed
  // order to stay bitwise comparable.
  scratch.result.clear();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = hits[w];
    if (word == 0) continue;
    hits[w] = 0;
    const EntryId base = w * 64;
    while (word != 0) {
      scratch.result.push_back(base +
                               static_cast<EntryId>(std::countr_zero(word)));
      word &= word - 1;
    }
  }
  return scratch.result;
}

void SubscriptionIndex::mark(const Message& message, Scratch& scratch,
                             std::uint64_t* hits) const {
  // Adapt the scratch to this index (grow-only; a fresh generation makes
  // stale counters unreadable) and start a new generation.  Counters are
  // reset lazily on first touch.
  if (scratch.counter_gen.size() < entries_.size()) {
    scratch.counter_gen.resize(entries_.size(), 0);
  }
  ++scratch.generation;
  if (scratch.generation == 0) {
    // Wrapped around: hard-reset so stale generations cannot alias.
    std::fill(scratch.counter_gen.begin(), scratch.counter_gen.end(),
              std::uint64_t{0});
    scratch.generation = 1;
  }
  const std::uint32_t generation = scratch.generation;
  scratch.candidates.clear();

  // One satisfied predicate for internal entry `id`.  The per-entry word
  // packs (generation << 32 | count): a stale generation resets the count
  // in-register, and the entry joins the candidates exactly once — the
  // moment its count crosses its predicate total.
  const std::uint64_t tagged = static_cast<std::uint64_t>(generation) << 32;
  auto bump = [&](InternalId id) {
    std::uint64_t cg = scratch.counter_gen[id];
    if ((cg >> 32) != generation) cg = tagged;
    ++cg;
    scratch.counter_gen[id] = cg;
    if (static_cast<std::uint32_t>(cg) == required_[id]) {
      scratch.candidates.push_back(id);
    }
  };

  // Marks an external id hit; a second disjunct of the same id sets the
  // same bit, so each id reads back once.
  auto emit = [hits](EntryId external) {
    hits[external / 64] |= std::uint64_t{1} << (external % 64);
  };

  for (const auto& attribute : message.head()) {
    const auto it = attributes_.find(std::string_view(attribute.name));
    if (it == attributes_.end()) continue;
    const AttributeIndex& attr = it->second;

    if (attribute.value.is_number()) {
      const double v = attribute.value.as_double();

      // Satisfied less-than keys form the suffix with key > v.
      {
        const auto begin = std::upper_bound(attr.less_keys.begin(),
                                            attr.less_keys.end(), v);
        const std::size_t first =
            static_cast<std::size_t>(begin - attr.less_keys.begin());
        for (std::size_t i = first; i < attr.less_entries.size(); ++i) {
          bump(attr.less_entries[i]);
        }
      }

      // Satisfied greater-than keys form the prefix with key < v.
      {
        const auto end = std::lower_bound(attr.greater_keys.begin(),
                                          attr.greater_keys.end(), v);
        const std::size_t count =
            static_cast<std::size_t>(end - attr.greater_keys.begin());
        for (std::size_t i = 0; i < count; ++i) {
          bump(attr.greater_entries[i]);
        }
      }

      const auto eq = attr.numeric_eq.find(v);
      if (eq != attr.numeric_eq.end()) {
        for (const InternalId id : eq->second) bump(id);
      }
    } else {
      const auto eq =
          attr.string_eq.find(std::string_view(attribute.value.as_string()));
      if (eq != attr.string_eq.end()) {
        for (const InternalId id : eq->second) bump(id);
      }
    }
  }

  for (const EntryId id : wildcards_) {
    emit(external_of_[id]);
  }

  for (const InternalId id : scratch.candidates) {
    if (needs_direct_[id] && !entries_[id].filter.matches(message)) {
      continue;
    }
    emit(external_of_[id]);
  }

  // Entries with no indexable predicate are never counted; scan directly.
  for (const EntryId id : direct_only_) {
    if (entries_[id].filter.matches(message)) {
      emit(external_of_[id]);
    }
  }
}

bool SubscriptionIndex::matches_entry(EntryId id,
                                      const Message& message) const {
  if (id >= external_count_) return false;
  // A scan of the flat owner array finds the id's disjuncts; only those
  // filters are evaluated.
  for (EntryId internal = 0; internal < external_of_.size(); ++internal) {
    if (external_of_[internal] == id &&
        entries_[internal].filter.matches(message)) {
      return true;
    }
  }
  return false;
}

void SubscriptionIndex::rebuild_direct_only_cache() const {
  if (direct_only_cache_valid_) return;
  direct_only_.clear();
  for (EntryId id = 0; id < entries_.size(); ++id) {
    const Entry& entry = entries_[id];
    if (!entry.filter.empty() && entry.indexed_predicates == 0) {
      direct_only_.push_back(id);
    }
  }
  direct_only_cache_valid_ = true;
}

}  // namespace bdps
