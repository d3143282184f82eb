// Epoch-based snapshot publication (the matching fabric's RCU).
//
// The sharded matching fabric wants a read path with *zero* shared writes:
// a million-subscription store is matched from many reader threads at
// once, and a reader-side lock — or even a contended shared_ptr refcount —
// serialises every reader on one cache line.  Instead, writers publish
// immutable snapshots through a raw atomic pointer and readers pin an
// *epoch* before dereferencing it:
//
//   reader                               writer
//   ------                               ------
//   do {                                 build new snapshot off-path
//     e = epoch.load();                  published.store(new)      (A)
//     slot.store(e);                     stamp = epoch.fetch_add(1) (B)
//   } while (epoch.load() != e);         retire(old, stamp)
//   snap = published.load();             ... later ...
//   ... match against *snap ...          free old when every pinned
//   slot.store(kNotPinned);                slot's epoch is > stamp
//
// Correctness hinges on one ordering fact (all the loads/stores above are
// seq_cst): a reader whose *validated* pin epoch is > stamp performed its
// validating load after (B) in the single total order, hence after (A),
// hence its subsequent published.load() cannot return the retired
// snapshot.  Conversely a reader that might still hold the old pointer
// necessarily pinned an epoch <= stamp, and reclamation waits for it.  The
// validation loop closes the classic hazard: between loading the epoch and
// advertising it, a writer may have advanced past us — re-check and retry
// (writers are rare; the loop almost never iterates).
//
// Readers therefore perform two uncontended stores to their *own* slot and
// three shared loads per pin — no RMW, no lock, no writer wait.  Writers
// pay one fetch_add plus a mutex-protected retire-list append; memory is
// reclaimed opportunistically on later retires (amortised scan of the
// registered slots).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace bdps::matching {

class EpochDomain {
 public:
  /// One reader's pin advertisement.  Cache-line sized so concurrent
  /// readers never false-share; acquire via acquire_slot() (cheap, but
  /// mutex-protected — keep one slot per long-lived reader, e.g. per match
  /// scratch, not per operation).
  struct alignas(64) Slot {
    static constexpr std::uint64_t kNotPinned = ~std::uint64_t{0};
    std::atomic<std::uint64_t> epoch{kNotPinned};
    std::atomic<bool> in_use{false};
  };

  EpochDomain() = default;
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// Registers (or recycles) a reader slot.  Slots live as long as the
  /// domain; release_slot returns one to the free pool.
  Slot* acquire_slot() {
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot& slot : slots_) {
      if (!slot.in_use.load(std::memory_order_relaxed)) {
        slot.in_use.store(true, std::memory_order_relaxed);
        assert(slot.epoch.load(std::memory_order_relaxed) == Slot::kNotPinned);
        return &slot;
      }
    }
    slots_.emplace_back();
    slots_.back().in_use.store(true, std::memory_order_relaxed);
    return &slots_.back();
  }

  void release_slot(Slot* slot) {
    if (slot == nullptr) return;
    assert(slot->epoch.load(std::memory_order_relaxed) == Slot::kNotPinned);
    std::lock_guard<std::mutex> lock(mu_);
    slot->in_use.store(false, std::memory_order_relaxed);
  }

  /// RAII validated pin; non-reentrant per slot.
  class Pin {
   public:
    Pin(const EpochDomain& domain, Slot& slot) : slot_(slot) {
      assert(slot.epoch.load(std::memory_order_relaxed) == Slot::kNotPinned &&
             "EpochDomain pins do not nest on one slot");
      std::uint64_t e;
      do {
        e = domain.epoch_.load(std::memory_order_seq_cst);
        slot_.epoch.store(e, std::memory_order_seq_cst);
      } while (domain.epoch_.load(std::memory_order_seq_cst) != e);
    }
    ~Pin() { slot_.epoch.store(Slot::kNotPinned, std::memory_order_seq_cst); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

   private:
    Slot& slot_;
  };

  /// Hands `object` to the domain for deferred destruction: it is stamped
  /// with the epoch current *after* the bump, and destroyed once every
  /// pinned slot has moved past that stamp.  The caller must already have
  /// unpublished it (no new reader can reach it).  Reclamation of earlier
  /// garbage piggybacks on this call once enough has accumulated.
  void retire(std::shared_ptr<const void> object) {
    if (object == nullptr) return;
    const std::uint64_t stamp =
        epoch_.fetch_add(1, std::memory_order_seq_cst);
    std::lock_guard<std::mutex> lock(mu_);
    retired_.push_back(Retired{std::move(object), stamp});
    // Amortise the slot scan: with R retired objects and S slots, scanning
    // every max(64, S) retires keeps reclaim cost O(1) per retire.
    if (retired_.size() >= reclaim_threshold()) reclaim_locked();
  }

  /// Destroys every retired object no pinned reader can still see.
  /// Returns how many were reclaimed.
  std::size_t try_reclaim() {
    std::lock_guard<std::mutex> lock(mu_);
    return reclaim_locked();
  }

  std::size_t retired_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return retired_.size();
  }

  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

 private:
  struct Retired {
    std::shared_ptr<const void> object;
    std::uint64_t stamp;
  };

  std::size_t reclaim_threshold() const {
    return slots_.size() < 64 ? 64 : slots_.size();
  }

  std::size_t reclaim_locked() {
    std::uint64_t min_pinned = Slot::kNotPinned;
    for (const Slot& slot : slots_) {
      const std::uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
      min_pinned = e < min_pinned ? e : min_pinned;
    }
    std::size_t freed = 0;
    // A reader pinned at epoch e can hold anything retired at stamp >= e
    // (the retire bump happened at-or-after its pin); stamps strictly below
    // every pin are invisible.
    std::size_t w = 0;
    for (std::size_t r = 0; r < retired_.size(); ++r) {
      if (retired_[r].stamp < min_pinned) {
        ++freed;
      } else {
        retired_[w++] = std::move(retired_[r]);
      }
    }
    retired_.resize(w);
    return freed;
  }

  std::atomic<std::uint64_t> epoch_{0};
  mutable std::mutex mu_;
  std::deque<Slot> slots_;         // Stable addresses; grows on demand.
  std::vector<Retired> retired_;
};

}  // namespace bdps::matching
