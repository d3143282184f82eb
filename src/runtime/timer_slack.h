// Timer slack: how late the kernel may fire a thread's timed wake-ups.
//
// Linux lets every timed wait (nanosleep, epoll_pwait2, ...) expire up to
// the calling thread's timer slack late, 50 us by default, so that nearby
// expiries can share one interrupt.  The live runtime replays the model's
// delays -- per-hop processing delay and link transmission time -- on a
// scaled wall clock, so that default is charged to every timer in
// simulated time: at speedup 100 it is 5 sim ms, 50x a 0.1 ms PD.  Every
// thread that waits for a model instant therefore waits with 1 ns slack:
// Reactor::start() spawns the workers under a ScopedTimerSlack, which they
// inherit for their whole life, and the publish pacer
// (LiveClock::sleep_for) holds one for each sleep.  Exactness is not a knob.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace bdps {

/// Sets the calling thread's timer slack to kExactNs and gives the previous
/// value back on destruction.  Must be destroyed on the thread that made
/// it (the slack is per thread).
class ScopedTimerSlack {
 public:
  static constexpr long kExactNs = 1;

  ScopedTimerSlack();
  ~ScopedTimerSlack();

  ScopedTimerSlack(const ScopedTimerSlack&) = delete;
  ScopedTimerSlack& operator=(const ScopedTimerSlack&) = delete;

 private:
  long previous_;  // Restored on exit; 0 when nothing was changed.
};

/// The calling thread's current timer slack in nanoseconds.
long timer_slack_ns();

/// One thread of this process and the timer slack the kernel reports for
/// it (/proc/<tid>/timerslack_ns), or -1 when that file is unreadable:
/// reading another thread's slack needs CAP_SYS_NICE.
struct ThreadTimerSlack {
  long tid = 0;
  std::string name;
  long slack_ns = -1;
};

/// Every live thread of this process whose name starts with `prefix`.
/// Threads that exit while they are being read are left out.
std::vector<ThreadTimerSlack> thread_timer_slacks(std::string_view prefix);

}  // namespace bdps
