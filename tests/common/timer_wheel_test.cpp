#include "common/timer_wheel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/random.h"

namespace bdps {
namespace {

using Wheel = TimerWheel<int>;
using Tick = Wheel::Tick;

struct Fired {
  Tick deadline = 0;
  int payload = 0;
};

/// Drives advance() and records every firing.
std::vector<Fired> advance_to(Wheel& wheel, Tick to) {
  std::vector<Fired> fired;
  wheel.advance(to, [&](Tick deadline, int payload) {
    fired.push_back(Fired{deadline, payload});
  });
  return fired;
}

TEST(TimerWheel, FiresAcrossLevelBoundariesAtExactTicks) {
  Wheel wheel;
  // One timer on each side of every wheel-level boundary.
  const std::vector<Tick> deadlines = {1,    63,   64,   65,     4095,
                                       4096, 4097, 262143, 262144, 262145};
  for (std::size_t i = 0; i < deadlines.size(); ++i) {
    wheel.schedule(deadlines[i], static_cast<int>(i));
  }
  EXPECT_EQ(wheel.pending(), deadlines.size());
  for (std::size_t i = 0; i < deadlines.size(); ++i) {
    // Nothing may fire before the deadline...
    EXPECT_TRUE(advance_to(wheel, deadlines[i] - 1).empty())
        << "early fire before tick " << deadlines[i];
    // ...and the timer fires exactly on it, reporting its true deadline.
    const auto fired = advance_to(wheel, deadlines[i]);
    ASSERT_EQ(fired.size(), 1u) << "at tick " << deadlines[i];
    EXPECT_EQ(fired[0].deadline, deadlines[i]);
    EXPECT_EQ(fired[0].payload, static_cast<int>(i));
  }
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, PastDeadlinesFireOnNextAdvanceWithoutProgress) {
  Wheel wheel;
  advance_to(wheel, 100);
  wheel.schedule(5, 1);    // Long past.
  wheel.schedule(100, 2);  // Exactly now.
  ASSERT_EQ(wheel.next_due(), std::optional<Tick>(100));
  const auto fired = advance_to(wheel, 100);  // No tick progress at all.
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].deadline, 5u);
  EXPECT_EQ(fired[1].deadline, 100u);
  EXPECT_EQ(wheel.current(), 100u);
}

TEST(TimerWheel, FarFutureBeyondSpanFiresExactlyOnce) {
  Wheel wheel;
  const Tick far = (Tick(1) << 40) + 7;  // Past the 2^36-tick span.
  wheel.schedule(far, 42);
  EXPECT_TRUE(advance_to(wheel, far - 1).empty());
  const auto fired = advance_to(wheel, far);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].deadline, far);
  EXPECT_EQ(fired[0].payload, 42);
  EXPECT_TRUE(advance_to(wheel, far + (Tick(1) << 41)).empty());
}

TEST(TimerWheel, WrapAroundAtFullSpanBoundary) {
  // Start just below the point where every wheel wraps simultaneously.
  Wheel wheel(Wheel::kSpan - 10);
  wheel.schedule(Wheel::kSpan - 2, 1);
  wheel.schedule(Wheel::kSpan, 2);      // The all-levels cascade tick.
  wheel.schedule(Wheel::kSpan + 5, 3);
  auto fired = advance_to(wheel, Wheel::kSpan + 5);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].payload, 1);
  EXPECT_EQ(fired[1].payload, 2);
  EXPECT_EQ(fired[2].payload, 3);
}

TEST(TimerWheel, NextDueIsAConservativeConvergingBound) {
  Wheel wheel;
  EXPECT_FALSE(wheel.next_due().has_value());
  const Tick deadline = 3'000'000'000ull;  // Deep in the upper wheels.
  wheel.schedule(deadline, 7);
  // Following next_due() must never pass the true deadline and must reach
  // it within one hop per level (each hop only cascades closer).
  int hops = 0;
  std::vector<Fired> fired;
  while (fired.empty()) {
    const auto bound = wheel.next_due();
    ASSERT_TRUE(bound.has_value());
    ASSERT_LE(*bound, deadline);
    ASSERT_GT(*bound, wheel.current());
    fired = advance_to(wheel, *bound);
    ASSERT_LE(++hops, Wheel::kLevels + 1);
  }
  EXPECT_EQ(fired[0].deadline, deadline);
}

TEST(TimerWheel, CallbacksMayScheduleReentrantly) {
  Wheel wheel;
  std::vector<Tick> fired;
  // A chain: each firing schedules the next, 1 tick later, five times.
  struct Chain {
    Wheel* wheel;
    std::vector<Tick>* fired;
    void fire(Tick deadline, int remaining) {
      fired->push_back(deadline);
      if (remaining > 0) {
        wheel->schedule(deadline + 1, remaining - 1);
      }
    }
  } chain{&wheel, &fired};
  wheel.schedule(10, 4);
  wheel.advance(100, [&](Tick d, int p) { chain.fire(d, p); });
  EXPECT_EQ(fired, (std::vector<Tick>{10, 11, 12, 13, 14}));
  EXPECT_EQ(wheel.pending(), 0u);
}

// ---- Model-based fuzz -------------------------------------------------------
//
// The reference model is a sorted multimap keyed by each timer's *effective*
// tick — max(deadline, tick at schedule time) — which is exactly when the
// wheel guarantees the firing.  Both sides run an identical random op
// stream; after every advance the fired sets must match per effective tick
// (order within one tick is unspecified) and fire order must be
// nondecreasing in effective tick.

struct ModelTimer {
  int payload = 0;
  Tick deadline = 0;  // As scheduled (reported by fire).
  Tick key = 0;       // Effective tick.
};

TEST(TimerWheel, FuzzAgainstSortedMultimapModel) {
  for (std::uint64_t seed : {11ull, 222ull, 3333ull}) {
    Rng rng(seed);
    Wheel wheel;
    std::map<int, ModelTimer> model;  // payload -> timer
    int next_payload = 0;

    for (int op = 0; op < 4000; ++op) {
      if (rng.uniform_index(10) < 6) {
        // Schedule with a delta spanning every level, past deadlines and
        // beyond-span futures included.
        static constexpr Tick kDeltas[] = {0,    1,     63,     64,
                                           65,   4'095, 4'096,  100'000,
                                           (Tick(1) << 37), (Tick(1) << 41)};
        const Tick base = kDeltas[rng.uniform_index(10)];
        const Tick jitter = rng.uniform_index(50);
        Tick at = wheel.current() + base + jitter;
        if (rng.uniform_index(8) == 0) {
          // Past or exactly-now deadline.
          const Tick back = rng.uniform_index(200);
          at = wheel.current() > back ? wheel.current() - back : 0;
        }
        const int payload = next_payload++;
        wheel.schedule(at, payload);
        model[payload] =
            ModelTimer{payload, at, std::max(at, wheel.current())};
      } else {
        // Advance by a delta that exercises slot walks, level crossings
        // and big skips.
        static constexpr Tick kJumps[] = {0, 1, 7, 64, 1000, 4096, 300'000,
                                          (Tick(1) << 36), 3, 17};
        const Tick to = wheel.current() + kJumps[rng.uniform_index(10)] +
                        rng.uniform_index(100);
        const auto fired = advance_to(wheel, to);

        // Expected: everything whose effective key is <= to.
        std::map<Tick, std::multiset<int>> expected;
        for (const auto& [payload, timer] : model) {
          if (timer.key <= to) expected[timer.key].insert(payload);
        }
        std::map<Tick, std::multiset<int>> got;
        Tick last_key = 0;
        for (const Fired& f : fired) {
          auto it = model.find(f.payload);
          ASSERT_NE(it, model.end()) << "fired unknown timer";
          EXPECT_EQ(f.deadline, it->second.deadline);
          EXPECT_GE(it->second.key, last_key)
              << "fire order must be nondecreasing in effective tick";
          last_key = it->second.key;
          got[it->second.key].insert(f.payload);
          model.erase(it);
        }
        EXPECT_EQ(got, expected) << "advance to " << to;
        EXPECT_EQ(wheel.current(), to);
        EXPECT_EQ(wheel.pending(), model.size());
      }
    }
    // Drain everything left and check it all comes out.
    const auto fired = advance_to(wheel, ~Tick(0));
    EXPECT_EQ(fired.size(), model.size());
    EXPECT_EQ(wheel.pending(), 0u);
  }
}

}  // namespace
}  // namespace bdps
