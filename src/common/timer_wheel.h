// Hierarchical timer wheel (Varghese & Lauck timing wheels).
//
// The reactor live runtime (runtime/reactor.h) sleeps every processing
// delay and every in-flight transmission as one pending timer, and a
// worker owns thousands of them.  A sorted container would pay O(log n)
// per operation and scatter nodes across the heap; the wheel gives O(1)
// schedule and amortised O(1) advance, with all near-term timers in a few
// contiguous slot lists.
//
// Layout: kLevels wheels of kSlots slots each, level l covering spans of
// 64^l ticks per slot.  A timer with deadline d goes into the level where
// its distance from the current tick fits, at slot (d >> 6l) & 63; when the
// lower wheels wrap, the now-current higher slot is *cascaded* — its timers
// re-inserted by their true deadline, landing one level down (or in the due
// list when their tick has arrived).  Deadlines beyond the total span
// (64^kLevels ticks) park in the top wheel's farthest slot and re-cascade
// until they fit, so arbitrarily far futures are legal.
//
// advance(to, fire) never walks empty ticks one by one: per-level occupancy
// bitmasks give the next occupied slot's tick in O(levels) (a rotate and a
// count-trailing-zeros per wheel), and the current tick jumps straight to
// it.  Advancing over a billion empty ticks costs the same as over ten.
//
// Semantics:
//   * schedule(at, payload) with at <= current tick is legal: the timer
//     fires on the *next* advance call (even advance(current)), with its
//     original deadline reported.
//   * advance(to, fire) fires every timer whose deadline (clamped to its
//     schedule instant) is <= to, in nondecreasing order of that effective
//     tick.  Order *within* one tick is unspecified (cascading interleaves
//     insertion orders).
//   * fire callbacks may freely schedule() — re-entrancy is part of the
//     contract (a completed transmission arms the next one).
//
// Not thread-safe: one wheel belongs to one reactor worker.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace bdps {

template <typename T>
class TimerWheel {
 public:
  using Tick = std::uint64_t;

  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;        // 64
  static constexpr int kLevels = 6;                    // Span 2^36 ticks.
  static constexpr Tick kSpan = Tick(1) << (kSlotBits * kLevels);

  explicit TimerWheel(Tick start = 0) : current_(start) {}

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  Tick current() const { return current_; }
  std::size_t pending() const { return pending_; }

  /// Schedules `payload` to fire at tick `at` (see header semantics for
  /// past deadlines).  O(1).
  void schedule(Tick at, T payload) {
    const std::int32_t idx = alloc();
    Node& node = pool_[static_cast<std::size_t>(idx)];
    node.deadline = at;
    node.payload = std::move(payload);
    place(idx);
    ++pending_;
  }

  /// Earliest tick at which advance() may fire something: current() when
  /// already-due timers wait, otherwise a conservative lower bound (the
  /// next occupied slot's tick — an advance there may only cascade and
  /// yield a finer bound).  nullopt when nothing is pending.
  std::optional<Tick> next_due() const {
    if (due_.head != kNil) return current_;
    if (pending_ == 0) return std::nullopt;
    return next_event_tick();
  }

  /// Advances the wheel to tick `to`, invoking fire(deadline, payload) for
  /// every expired timer (deadline is the originally scheduled tick, which
  /// may lie in the past for late-scheduled timers).  `to` < current() is
  /// a no-op apart from draining already-due timers.
  template <typename Fire>
  void advance(Tick to, Fire&& fire) {
    fire_due(fire);
    while (current_ < to) {
      if (pending_ == 0) {
        current_ = to;
        return;
      }
      const Tick next = next_event_tick();
      if (next > to) {
        current_ = to;
        return;
      }
      current_ = next;
      // Cascade every wheel that wrapped at this tick, highest first, so
      // re-inserted timers land in slots the lower cascades then visit.
      if (current_ != 0) {
        const int wrapped = std::countr_zero(current_) / kSlotBits;
        for (int level = std::min(wrapped, kLevels - 1); level >= 1;
             --level) {
          cascade(level,
                  static_cast<int>((current_ >> (kSlotBits * level)) &
                                   (kSlots - 1)));
        }
      }
      fire_slot_zero(fire);
      fire_due(fire);
    }
  }

 private:
  static constexpr std::int32_t kNil = -1;
  // Node list tags: 0..kLevels*kSlots-1 are wheel slots, then:
  static constexpr std::int16_t kDueList = -2;
  static constexpr std::int16_t kFreeList = -3;

  struct Node {
    Tick deadline = 0;
    T payload{};
    std::int32_t prev = kNil;
    std::int32_t next = kNil;
    /// kFreeList, kDueList, or level * kSlots + slot.
    std::int16_t list = kFreeList;
  };

  struct ListHead {
    std::int32_t head = kNil;
    std::int32_t tail = kNil;
  };

  std::int32_t alloc() {
    if (free_head_ != kNil) {
      const std::int32_t idx = free_head_;
      free_head_ = pool_[static_cast<std::size_t>(idx)].next;
      return idx;
    }
    pool_.emplace_back();
    return static_cast<std::int32_t>(pool_.size() - 1);
  }

  /// Returns a node to the free list.
  void release(std::int32_t idx) {
    Node& node = pool_[static_cast<std::size_t>(idx)];
    node.payload = T{};
    node.list = kFreeList;
    node.prev = kNil;
    node.next = free_head_;
    free_head_ = idx;
  }

  ListHead& list_of(std::int16_t list) {
    return list == kDueList
               ? due_
               : slots_[static_cast<std::size_t>(list)];
  }

  void push_back(std::int16_t list, std::int32_t idx) {
    ListHead& l = list_of(list);
    Node& node = pool_[static_cast<std::size_t>(idx)];
    node.list = list;
    node.next = kNil;
    node.prev = l.tail;
    if (l.tail != kNil) {
      pool_[static_cast<std::size_t>(l.tail)].next = idx;
    } else {
      l.head = idx;
    }
    l.tail = idx;
    if (list >= 0) {
      occupancy_[list / kSlots] |= std::uint64_t(1) << (list % kSlots);
    }
  }

  void unlink(std::int32_t idx) {
    Node& node = pool_[static_cast<std::size_t>(idx)];
    ListHead& l = list_of(node.list);
    if (node.prev != kNil) {
      pool_[static_cast<std::size_t>(node.prev)].next = node.next;
    } else {
      l.head = node.next;
    }
    if (node.next != kNil) {
      pool_[static_cast<std::size_t>(node.next)].prev = node.prev;
    } else {
      l.tail = node.prev;
    }
    if (node.list >= 0 && l.head == kNil) {
      occupancy_[node.list / kSlots] &=
          ~(std::uint64_t(1) << (node.list % kSlots));
    }
    node.prev = node.next = kNil;
  }

  /// Files a node into the wheel position its deadline dictates *now*.
  void place(std::int32_t idx) {
    Node& node = pool_[static_cast<std::size_t>(idx)];
    if (node.deadline <= current_) {
      push_back(kDueList, idx);
      return;
    }
    const Tick delta = node.deadline - current_;
    int level;
    Tick key = node.deadline;
    if (delta >= kSpan) {
      // Beyond the horizon: park in the farthest top-level slot; each
      // cascade re-places it until the true deadline fits.
      level = kLevels - 1;
      key = current_ + kSpan - 1;
    } else {
      level = (std::bit_width(delta) - 1) / kSlotBits;
    }
    const int slot =
        static_cast<int>((key >> (kSlotBits * level)) & (kSlots - 1));
    push_back(static_cast<std::int16_t>(level * kSlots + slot), idx);
  }

  /// Empties one higher-level slot, re-filing every timer by its true
  /// deadline (one level down, the due list, or — for beyond-horizon
  /// parkers — the same slot band again).
  void cascade(int level, int slot) {
    const std::int16_t list = static_cast<std::int16_t>(level * kSlots + slot);
    std::int32_t idx = slots_[static_cast<std::size_t>(list)].head;
    slots_[static_cast<std::size_t>(list)] = ListHead{};
    occupancy_[level] &= ~(std::uint64_t(1) << slot);
    while (idx != kNil) {
      const std::int32_t next = pool_[static_cast<std::size_t>(idx)].next;
      pool_[static_cast<std::size_t>(idx)].prev = kNil;
      pool_[static_cast<std::size_t>(idx)].next = kNil;
      place(idx);  // pending_ is untouched: the timer just moves lists.
      idx = next;
    }
  }

  /// Fires and frees everything in the level-0 slot of the current tick.
  /// Callbacks may re-enter schedule(): the node is detached and freed
  /// before `fire` runs, and no Node reference is held across it.
  template <typename Fire>
  void fire_slot_zero(Fire&& fire) {
    const std::int16_t list =
        static_cast<std::int16_t>(current_ & (kSlots - 1));
    for (;;) {
      const std::int32_t idx = slots_[static_cast<std::size_t>(list)].head;
      if (idx == kNil) break;
      unlink(idx);
      const Tick deadline = pool_[static_cast<std::size_t>(idx)].deadline;
      T payload = std::move(pool_[static_cast<std::size_t>(idx)].payload);
      release(idx);
      --pending_;
      fire(deadline, std::move(payload));
    }
  }

  template <typename Fire>
  void fire_due(Fire&& fire) {
    while (due_.head != kNil) {
      const std::int32_t idx = due_.head;
      unlink(idx);
      const Tick deadline = pool_[static_cast<std::size_t>(idx)].deadline;
      T payload = std::move(pool_[static_cast<std::size_t>(idx)].payload);
      release(idx);
      --pending_;
      fire(deadline, std::move(payload));
    }
  }

  /// Tick of the next slot that holds timers — the exact deadline for
  /// level-0 slots, the cascade instant for higher levels.  Requires at
  /// least one timer outside the due list.
  Tick next_event_tick() const {
    Tick best = ~Tick(0);
    for (int level = 0; level < kLevels; ++level) {
      const std::uint64_t occ = occupancy_[level];
      if (occ == 0) continue;
      const Tick base = current_ >> (kSlotBits * level);
      const int cur = static_cast<int>(base & (kSlots - 1));
      // Distance (1..64) to the next occupied slot strictly after `cur`
      // (a slot equal to `cur` means a full wheel turn away).
      const std::uint64_t rotated = std::rotr(occ, (cur + 1) & (kSlots - 1));
      const Tick dist = static_cast<Tick>(std::countr_zero(rotated)) + 1;
      const Tick candidate = (base + dist) << (kSlotBits * level);
      if (candidate < best) best = candidate;
    }
    assert(best != ~Tick(0));
    return best;
  }

  Tick current_ = 0;
  std::size_t pending_ = 0;
  std::vector<Node> pool_;
  std::int32_t free_head_ = kNil;
  ListHead slots_[kLevels * kSlots];
  ListHead due_;
  std::uint64_t occupancy_[kLevels] = {};
};

}  // namespace bdps
