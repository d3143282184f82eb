#include "matching/sharded_index.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>

namespace bdps::matching {

namespace {
/// True when two core roots evaluate the same member units in the same
/// order — the condition for a rebuild to keep a root's program.
template <typename Root>
bool same_eval_members(const Root& a, const Root& b) {
  if (a.eval_members != b.eval_members) return false;
  std::size_t j = 0;
  for (const auto& member : a.members) {
    if (member.equal) continue;
    while (b.members[j].equal) ++j;  // Bounded: eval counts agree.
    if (b.members[j++].unit != member.unit) return false;
  }
  return true;
}
}  // namespace

MatchFabric::ShardSnapshot::~ShardSnapshot() {
  // Long overlay lists must not unwind recursively (the shared_ptr chain
  // nests one destructor frame per node): unlink iteratively for every
  // node this snapshot holds the last reference to.
  std::shared_ptr<const OverlayNode> node = std::move(overlay);
  while (node != nullptr && node.use_count() == 1) {
    std::shared_ptr<const OverlayNode> next =
        std::move(const_cast<OverlayNode&>(*node).next);
    node = std::move(next);
  }
}

MatchScratch::~MatchScratch() {
  if (slot_ != nullptr) domain_->release_slot(slot_);
}

void MatchScratch::bind(EpochDomain& domain) {
  if (slot_ != nullptr) {
    assert(domain_ == &domain && "a MatchScratch serves a single fabric");
    return;
  }
  domain_ = &domain;
  slot_ = domain.acquire_slot();
}

MatchFabric::MatchFabric(MatchFabricOptions options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.rebuild_divisor == 0) options_.rebuild_divisor = 1;
  if (options_.rebuild_min == 0) options_.rebuild_min = 1;
  if (options_.compile_min_members == 0) options_.compile_min_members = 1;
  shards_.reserve(options_.shards + 1);
  for (std::size_t i = 0; i < options_.shards + 1; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

MatchFabric::~MatchFabric() = default;

std::size_t MatchFabric::shard_of(const FilterSignature& sig) const {
  const std::string& attr = sig.selective_attribute();
  if (attr.empty()) return 0;  // Fallback shard.
  return 1 + std::hash<std::string>{}(attr) % options_.shards;
}

std::size_t MatchFabric::overlay_threshold(std::size_t core_size) const {
  // The floor wins over the cap when rebuild_min exceeds it.
  return std::max(options_.rebuild_min,
                  std::min(kRebuildCap, core_size / options_.rebuild_divisor));
}

RowId MatchFabric::add(const Filter& filter) {
  std::lock_guard<std::mutex> lock(rows_mu_);
  const RowId row = rows_.size();
  // shard_of must be sequenced before the std::move below — as call
  // arguments the two are indeterminately sequenced, and a moved-from
  // signature has an empty selective attribute, which routes every unit
  // to the fallback shard.
  FilterSignature sig = FilterSignature::of(filter);
  const std::size_t target = shard_of(sig);
  rows_.emplace_back(static_cast<std::uint32_t>(target), nullptr);
  ++live_rows_;
  // Published (release) before the shard publishes a snapshot that can
  // emit this row, so readers always see a bound covering what they match.
  row_bound_.store(rows_.size(), std::memory_order_release);
  rows_[row].second = install_unit(target, filter, std::move(sig), row);
  return row;
}

void MatchFabric::remove(RowId row) {
  std::lock_guard<std::mutex> lock(rows_mu_);
  if (row >= rows_.size()) return;
  const auto [shard_index, unit] = rows_[row];
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> shard_lock(shard.mu);
  if (!unit->alive.load(std::memory_order_relaxed)) return;
  // Tombstone: matches stop emitting the unit immediately; its index
  // footprint is folded away by the next rebuild.
  unit->alive.store(false, std::memory_order_relaxed);
  --live_rows_;
  --shard.live_units;
  ++shard.dead_since_rebuild;
  const ShardSnapshot* cur = shard.owner.get();
  const std::size_t core_size =
      cur != nullptr && cur->core != nullptr ? cur->core->roots.size() : 0;
  if (shard.dead_since_rebuild > overlay_threshold(core_size)) {
    rebuild_locked(shard);
  }
}

std::int32_t MatchFabric::find_root(const Shard& shard,
                                    const std::vector<CoreRoot>& roots,
                                    const FilterSignature& sig,
                                    bool* equal) {
  *equal = false;
  const auto eq = shard.roots_by_hash.find(sig.hash());
  if (eq != shard.roots_by_hash.end()) {
    for (const std::uint32_t k : eq->second) {
      if (roots[k].unit->sig.equivalent(sig)) {
        *equal = true;
        return static_cast<std::int32_t>(k);
      }
    }
  }
  std::size_t probes = 0;
  std::int32_t found = -1;
  auto probe_anchor = [&](const std::string& anchor) {
    const auto it = shard.roots_by_anchor.find(anchor);
    if (it == shard.roots_by_anchor.end()) return false;
    for (const std::uint32_t k : it->second) {
      if (probes++ >= kMaxCoverProbe) return true;  // Give up, stay a root.
      if (roots[k].unit->sig.covers(sig)) {
        found = static_cast<std::int32_t>(k);
        return true;
      }
    }
    return false;
  };
  // A coverer constrains a subset of sig's attributes, so its anchor (its
  // smallest constrained name) is one of sig's names — or "" (wildcards).
  static const std::string kNoAnchor;
  if (probe_anchor(kNoAnchor)) return found;
  for (const NumericConstraint& nc : sig.numeric_constraints()) {
    if (probe_anchor(nc.name)) return found;
  }
  for (const StringConstraint& sc : sig.string_constraints()) {
    if (probe_anchor(sc.name)) return found;
  }
  return found;
}

MatchFabric::Unit* MatchFabric::install_unit(std::size_t shard_index,
                                             const Filter& filter,
                                             FilterSignature sig, RowId row) {
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.units.emplace_back(filter, std::move(sig), row);
  Unit* unit = &shard.units.back();
  ++shard.live_units;

  const ShardSnapshot* cur = shard.owner.get();
  const std::size_t core_size =
      cur != nullptr && cur->core != nullptr ? cur->core->roots.size() : 0;
  const std::size_t overlay_len = (cur != nullptr ? cur->overlay_len : 0) + 1;
  if (overlay_len > overlay_threshold(core_size)) {
    rebuild_locked(shard);  // Folds the new unit in with everything else.
    return unit;
  }

  std::int32_t core_root = -1;
  bool equal = false;
  if (options_.covering && cur != nullptr && cur->core != nullptr) {
    core_root = find_root(shard, cur->core->roots, unit->sig, &equal);
  }
  auto node = std::make_shared<OverlayNode>();
  node->next = cur != nullptr ? cur->overlay : nullptr;
  node->unit = unit;
  node->core_root = core_root;
  node->equal = equal;
  auto snapshot = std::make_shared<ShardSnapshot>();
  snapshot->core = cur != nullptr ? cur->core : nullptr;
  snapshot->overlay = std::move(node);
  snapshot->overlay_len = overlay_len;
  snapshot->programs = cur != nullptr ? cur->programs : nullptr;
  publish_locked(shard, std::move(snapshot));
  return unit;
}

void MatchFabric::rebuild_locked(Shard& shard) {
  auto core = std::make_shared<CoreIndex>();
  shard.roots_by_hash.clear();
  shard.roots_by_anchor.clear();
  // Greedy, insertion-ordered root selection: a unit joins the first
  // existing root that equals or covers it, else becomes a root itself.
  for (Unit& unit : shard.units) {
    if (!unit.alive.load(std::memory_order_relaxed)) continue;
    std::int32_t root = -1;
    bool equal = false;
    if (options_.covering) {
      root = find_root(shard, core->roots, unit.sig, &equal);
    }
    if (root >= 0) {
      core->roots[static_cast<std::size_t>(root)].members.push_back(
          CoreMember{&unit, equal});
      continue;
    }
    const auto ordinal = static_cast<std::uint32_t>(core->roots.size());
    const SubscriptionIndex::EntryId id = core->index.add(unit.filter);
    assert(id == ordinal && "core index ids must mirror root ordinals");
    (void)id;
    core->roots.push_back(CoreRoot{&unit, {}});
    shard.roots_by_hash[unit.sig.hash()].push_back(ordinal);
    shard.roots_by_anchor[unit.sig.anchor_attribute()].push_back(ordinal);
  }
  core->index.finalize();
  for (CoreRoot& root : core->roots) {
    std::uint32_t eval_members = 0;
    for (const CoreMember& member : root.members) {
      eval_members += member.equal ? 0u : 1u;
    }
    root.eval_members = eval_members;
  }
  // The rebuild is the cheap compile point (immutable input, already off
  // the read path): roots that crossed the hot threshold — including ones
  // compiled for the previous core, whose heat lives on their units —
  // come out of the rebuild compiled.  A root the previous core compiled
  // over the same evaluated member units keeps that program.
  std::shared_ptr<ProgramSet> programs;
  if (options_.compile_hot_hits > 0) {
    // Reuse candidates: the previous core's compiled roots, by root unit.
    const ShardSnapshot* old = shard.owner.get();
    std::unordered_map<const Unit*, std::size_t> compiled_before;
    if (old != nullptr && old->programs != nullptr) {
      for (std::size_t k = 0; k < old->programs->programs.size(); ++k) {
        if (old->programs->programs[k] != nullptr) {
          compiled_before.emplace(old->core->roots[k].unit, k);
        }
      }
    }
    for (std::size_t k = 0; k < core->roots.size(); ++k) {
      const CoreRoot& root = core->roots[k];
      if (!wants_program(root)) continue;
      if (programs == nullptr) {
        programs = std::make_shared<ProgramSet>();
        programs->programs.resize(core->roots.size());
      }
      const auto before = compiled_before.find(root.unit);
      if (before != compiled_before.end() &&
          same_eval_members(old->core->roots[before->second], root)) {
        programs->programs[k] = old->programs->programs[before->second];
      } else {
        programs->programs[k] = compile_root_locked(shard, root);
      }
    }
  }
  shard.dead_since_rebuild = 0;
  ++shard.rebuilds;
  auto snapshot = std::make_shared<ShardSnapshot>();
  snapshot->core = std::move(core);
  snapshot->programs = std::move(programs);
  publish_locked(shard, std::move(snapshot));
}

bool MatchFabric::wants_program(const CoreRoot& root) const {
  return options_.compile_hot_hits > 0 &&
         root.eval_members >= options_.compile_min_members &&
         root.unit->hits.load(std::memory_order_relaxed) >=
             options_.compile_hot_hits;
}

std::shared_ptr<const program::PredicateProgram>
MatchFabric::compile_root_locked(Shard& shard, const CoreRoot& root) const {
  const auto start = std::chrono::steady_clock::now();
  std::vector<const Filter*> filters;
  filters.reserve(root.eval_members);
  for (const CoreMember& member : root.members) {
    if (!member.equal) filters.push_back(&member.unit->filter);
  }
  auto compiled = std::make_shared<const program::PredicateProgram>(
      program::PredicateProgram::compile(filters));
  shard.compile_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  ++shard.compiles;
  return compiled;
}

void MatchFabric::compile_hot_locked(Shard& shard) const {
  if (options_.compile_hot_hits == 0) return;
  const ShardSnapshot* cur = shard.owner.get();
  if (cur == nullptr || cur->core == nullptr) return;
  const std::vector<CoreRoot>& roots = cur->core->roots;
  const ProgramSet* old = cur->programs.get();
  std::shared_ptr<ProgramSet> next;
  for (std::size_t k = 0; k < roots.size(); ++k) {
    const bool compiled = old != nullptr && k < old->programs.size() &&
                          old->programs[k] != nullptr;
    if (compiled || !wants_program(roots[k])) continue;
    if (next == nullptr) {
      next = std::make_shared<ProgramSet>();
      if (old != nullptr) next->programs = old->programs;
      next->programs.resize(roots.size());
    }
    next->programs[k] = compile_root_locked(shard, roots[k]);
  }
  if (next == nullptr) return;  // Lost the race: already compiled.
  auto snapshot = std::make_shared<ShardSnapshot>();
  snapshot->core = cur->core;
  snapshot->overlay = cur->overlay;
  snapshot->overlay_len = cur->overlay_len;
  snapshot->programs = std::move(next);
  publish_locked(shard, std::move(snapshot));
}

void MatchFabric::publish_locked(
    Shard& shard, std::shared_ptr<const ShardSnapshot> snapshot) const {
  // Order matters: swap the read pointer first, then epoch-retire the old
  // snapshot — EpochDomain's protocol requires the object be unreachable
  // to new pins before its retire stamp is taken.
  shard.published.store(snapshot.get(), std::memory_order_seq_cst);
  std::shared_ptr<const ShardSnapshot> old = std::move(shard.owner);
  shard.owner = std::move(snapshot);
  ++shard.publications;
  domain_.retire(std::move(old));
}

const std::vector<RowId>& MatchFabric::match(const Message& message,
                                             MatchScratch& scratch) const {
  scratch.bind(domain_);
  scratch.result_.clear();

  // Pinned for the whole fan-out: every shard snapshot loaded below stays
  // alive until the pin drops, however long the match takes.
  EpochDomain::Pin pin(domain_, *scratch.slot_);

  const std::uint32_t hot_hits =
      static_cast<std::uint32_t>(options_.compile_hot_hits);
  std::uint64_t vm_evals = 0;
  std::uint64_t vm_fallbacks = 0;
  std::uint64_t interp_evals = 0;
  std::uint64_t batch_evals = 0;
  // The head is resolved into the hash-probed SlotValues view at the
  // first compiled-root hit and reused by every program in every shard —
  // one head walk per message instead of one Message::find per program
  // slot (the batch entry point of program.h).
  bool slots_resolved = false;

  // A snapshot holds each unit once and a row is one unit, so no row can
  // be emitted twice.
  auto emit = [&](const Unit* unit, bool needs_eval) {
    if (!unit->alive.load(std::memory_order_relaxed)) return;
    if (needs_eval) {
      ++interp_evals;
      if (!unit->filter.matches(message)) return;
    }
    scratch.result_.push_back(unit->row);
  };

  for (const auto& shard : shards_) {
    const ShardSnapshot* snap =
        shard->published.load(std::memory_order_seq_cst);
    if (snap == nullptr) continue;
    bool saw_hot_uncompiled = false;

    std::uint32_t root_generation = 0;
    if (snap->core != nullptr) {
      const std::vector<CoreRoot>& roots = snap->core->roots;
      const ProgramSet* programs = snap->programs.get();
      if (scratch.root_gen_.size() < roots.size()) {
        scratch.root_gen_.resize(roots.size(), 0u);
      }
      ++scratch.root_generation_;
      if (scratch.root_generation_ == 0) {
        std::fill(scratch.root_gen_.begin(), scratch.root_gen_.end(), 0u);
        scratch.root_generation_ = 1;
      }
      root_generation = scratch.root_generation_;

      // A core hit is exact: the root's own row needs no re-evaluation,
      // equal members ride along for free, covered members are checked —
      // but only ever on a root hit, and through the root's compiled
      // program (one batch pass over all of them) once it has one.
      for (const SubscriptionIndex::EntryId k :
           snap->core->index.match(message, scratch.index_scratch_)) {
        scratch.root_gen_[k] = root_generation;
        const CoreRoot& root = roots[k];
        emit(root.unit, /*needs_eval=*/false);
        const program::PredicateProgram* prog =
            programs != nullptr && k < programs->programs.size()
                ? programs->programs[k].get()
                : nullptr;
        if (prog != nullptr) {
          if (!slots_resolved) {
            scratch.slot_values_.reset(message);
            slots_resolved = true;
          }
          prog->evaluate(message, scratch.slot_values_,
                         scratch.program_eval_);
          ++batch_evals;
          vm_evals += prog->member_count() - prog->fallback_count();
          vm_fallbacks += prog->fallback_count();
          const std::uint8_t* matched = scratch.program_eval_.matched.data();
          std::size_t m = 0;
          for (const CoreMember& member : root.members) {
            if (member.equal) {
              emit(member.unit, /*needs_eval=*/false);
            } else if (matched[m++] != 0) {
              emit(member.unit, /*needs_eval=*/false);
            }
          }
          continue;
        }
        // Interpreted root: evaluate members the generic way and account
        // the hit toward the compile tier.  The counter is bumped racily
        // and only below the threshold — contention on a hot root's cache
        // line stops as soon as it saturates.
        if (hot_hits != 0 &&
            root.eval_members >= options_.compile_min_members) {
          std::uint32_t h = root.unit->hits.load(std::memory_order_relaxed);
          if (h < hot_hits) {
            root.unit->hits.store(h + 1, std::memory_order_relaxed);
            ++h;
          }
          if (h >= hot_hits) saw_hot_uncompiled = true;
        }
        for (const CoreMember& member : root.members) {
          emit(member.unit, /*needs_eval=*/!member.equal);
        }
      }
    }

    // One overlay walk per shard: members piggyback on the root marks set
    // above, standalone units are evaluated directly.
    for (const OverlayNode* node = snap->overlay.get(); node != nullptr;
         node = node->next.get()) {
      if (node->core_root >= 0) {
        if (root_generation != 0 &&
            scratch.root_gen_[static_cast<std::size_t>(node->core_root)] ==
                root_generation) {
          emit(node->unit, /*needs_eval=*/!node->equal);
        }
      } else {
        emit(node->unit, /*needs_eval=*/true);
      }
    }

    // Compile-tier handoff, after this shard's snapshot is consumed:
    // volunteer when the lock is free, else leave it to the next reader
    // that hits a hot interpreted root.  try_lock keeps readers wait-free
    // with respect to each other and to writers; the pinned epoch keeps
    // `snap` (and every snapshot retired by our own republish) alive.
    if (saw_hot_uncompiled && shard->mu.try_lock()) {
      std::lock_guard<std::mutex> lock(shard->mu, std::adopt_lock);
      compile_hot_locked(*shard);
    }
  }

  if (vm_evals != 0) {
    vm_member_evals_.fetch_add(vm_evals, std::memory_order_relaxed);
  }
  if (vm_fallbacks != 0) {
    vm_fallback_evals_.fetch_add(vm_fallbacks, std::memory_order_relaxed);
  }
  if (interp_evals != 0) {
    interp_member_evals_.fetch_add(interp_evals, std::memory_order_relaxed);
  }
  if (batch_evals != 0) {
    vm_batch_evals_.fetch_add(batch_evals, std::memory_order_relaxed);
  }

  // Canonical match order: ascending row id (shared with SubscriptionIndex
  // so the two are byte-comparable).
  std::sort(scratch.result_.begin(), scratch.result_.end());
  return scratch.result_;
}

MatchFabric::Stats MatchFabric::stats() const {
  Stats stats;
  std::lock_guard<std::mutex> lock(rows_mu_);
  stats.total_rows = rows_.size();
  stats.live_rows = live_rows_;
  stats.active_shards = options_.shards;
  stats.vm_member_evals = vm_member_evals_.load(std::memory_order_relaxed);
  stats.vm_fallback_evals =
      vm_fallback_evals_.load(std::memory_order_relaxed);
  stats.interp_member_evals =
      interp_member_evals_.load(std::memory_order_relaxed);
  stats.vm_batch_evals = vm_batch_evals_.load(std::memory_order_relaxed);
  std::uint64_t compile_ns = 0;
  stats.shard_units.reserve(shards_.size());
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> shard_lock(shard.mu);
    stats.live_units += shard.live_units;
    stats.shard_units.push_back(shard.live_units);
    stats.rebuilds += shard.rebuilds;
    stats.publications += shard.publications;
    stats.compiles += shard.compiles;
    compile_ns += shard.compile_ns;
    const ShardSnapshot* snap = shard.owner.get();
    if (snap == nullptr) continue;
    if (snap->programs != nullptr) {
      for (const auto& prog : snap->programs->programs) {
        stats.compiled_roots += prog != nullptr ? 1u : 0u;
      }
    }
    if (snap->core != nullptr) {
      stats.index_roots += snap->core->roots.size();
      for (const CoreRoot& root : snap->core->roots) {
        for (const CoreMember& member : root.members) {
          if (!member.unit->alive.load(std::memory_order_relaxed)) continue;
          member.equal ? ++stats.equal_members : ++stats.covered_members;
        }
      }
    }
    for (const OverlayNode* node = snap->overlay.get(); node != nullptr;
         node = node->next.get()) {
      ++stats.overlay_units;
      if (node->core_root < 0) {
        ++stats.index_roots;
      } else if (node->unit->alive.load(std::memory_order_relaxed)) {
        node->equal ? ++stats.equal_members : ++stats.covered_members;
      }
    }
  }
  stats.compile_ms = static_cast<double>(compile_ns) / 1e6;
  return stats;
}

}  // namespace bdps::matching
