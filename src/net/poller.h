// Thin epoll wrapper: the park of every reactor worker.
//
// Registered fds carry a caller-chosen u64 key (an index into the owner's
// connection table); wait() decodes epoll events into (key, readable,
// writable, hangup) records.  The timeout has nanosecond resolution
// (epoll_pwait2), so a worker parked on its earliest timer wakes on time
// even when that timer is microseconds away.  WakeFd is
// the cross-thread doorbell — an eventfd registered like any other fd, so
// work pushed by another thread interrupts an idle wait without a pipe
// pair or signal games.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace bdps {

class Poller {
 public:
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void add(int fd, std::uint64_t key, bool want_read, bool want_write);
  void modify(int fd, std::uint64_t key, bool want_read, bool want_write);
  void remove(int fd);

  struct Event {
    std::uint64_t key = 0;
    bool readable = false;
    bool writable = false;
    bool hangup = false;
  };

  /// Blocks up to `timeout` (negative = indefinitely, zero = poll) and
  /// stores the ready events in `out` (cleared first).
  void wait(std::chrono::nanoseconds timeout, std::vector<Event>& out);

 private:
  int epoll_fd_ = -1;
};

/// eventfd doorbell: signal() from any thread, drain() on the poller
/// thread once its readable event fires.
class WakeFd {
 public:
  WakeFd();
  ~WakeFd();

  WakeFd(const WakeFd&) = delete;
  WakeFd& operator=(const WakeFd&) = delete;

  int fd() const { return fd_; }
  void signal();
  void drain();

 private:
  int fd_ = -1;
};

}  // namespace bdps
