// Live broker runtime — shared declarations.
//
// The discrete-event simulators prove the scheduling *math*; the live
// runtime runs the same broker step (sim/broker_step.h) under real
// concurrency, with deliveries checked against deadlines in (scaled) real
// time.  The clock and stats here are shared by both execution modes: the
// in-process reactor worker pool (runtime/reactor.h — processing delays
// and transmissions are timers in a per-worker heap) and the
// socket-backed shard runtime layered on top of it (net/endpoint.h
// trunks).
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "broker/broker.h"
#include "runtime/channel.h"

namespace bdps {

/// Scaled wall clock: `speedup` simulated milliseconds elapse per real
/// millisecond, so the paper's multi-second transfers run in demo time.
/// Virtual mode (start_virtual, reachable only from C++) replaces the wall
/// with an instant the single driving thread sets: no real time passes.
class LiveClock {
 public:
  explicit LiveClock(double speedup = 1.0) : speedup_(speedup) {}

  void start() { start_ = std::chrono::steady_clock::now(); }
  /// Starts in virtual mode at instant 0; set it with set_virtual.
  void start_virtual() {
    virtual_ = true;
    virtual_now_ = 0.0;
  }
  void set_virtual(TimeMs instant) { virtual_now_ = instant; }
  bool is_virtual() const { return virtual_; }

  /// Simulated milliseconds since start() (virtual mode: the set instant).
  TimeMs now() const {
    if (virtual_) return virtual_now_;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const double real_ms =
        std::chrono::duration<double, std::milli>(elapsed).count();
    return real_ms * speedup_;
  }

  /// Sleeps the calling thread for `sim_ms` simulated milliseconds, with
  /// 1 ns timer slack for the sleep (runtime/timer_slack.h); the caller's
  /// slack is back when it returns.
  void sleep_for(TimeMs sim_ms) const;

  /// The real instant at which the clock reads `sim_ms`, rounded up to
  /// the next clock tick — what a parked reactor worker waits for, so it
  /// never wakes before its earliest timer is due.
  std::chrono::steady_clock::time_point real_time_at(TimeMs sim_ms) const {
    return start_ + std::chrono::ceil<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            sim_ms / speedup_));
  }

  double speedup() const { return speedup_; }

 private:
  double speedup_;
  std::chrono::steady_clock::time_point start_{};
  bool virtual_ = false;
  TimeMs virtual_now_ = 0.0;
};

/// One message delivery observed by the live runtime.
struct LiveDelivery {
  SubscriberId subscriber = 0;
  MessageId message = 0;
  TimeMs delay = 0.0;
  bool valid = false;
  double price = 0.0;
};

/// Thread-safe accumulator shared by all live brokers.
class LiveStats {
 public:
  void on_reception() { receptions_.fetch_add(1, std::memory_order_relaxed); }
  void on_purge(const PurgeStats& stats);
  void on_delivery(const LiveDelivery& delivery);
  /// Copies destroyed by faults (broker crash wipes, severed trunks) —
  /// distinct from deadline purges.
  void on_loss(std::size_t n) { lost_.fetch_add(n, std::memory_order_relaxed); }

  std::size_t receptions() const { return receptions_.load(); }
  std::size_t purged() const { return purged_.load(); }
  std::size_t lost() const { return lost_.load(); }
  std::vector<LiveDelivery> deliveries() const;
  std::size_t valid_deliveries() const;
  double earning() const;

 private:
  std::atomic<std::size_t> receptions_{0};
  std::atomic<std::size_t> purged_{0};
  std::atomic<std::size_t> lost_{0};
  mutable std::mutex mutex_;
  std::vector<LiveDelivery> deliveries_;
};

}  // namespace bdps
