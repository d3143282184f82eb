#include "runtime/live_broker.h"

#include <thread>

#include "runtime/timer_slack.h"

namespace bdps {

void LiveClock::sleep_for(TimeMs sim_ms) const {
  if (sim_ms <= 0.0) return;
  const double real_ms = sim_ms / speedup_;
  const ScopedTimerSlack exact;  // Wake at the model instant.
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(real_ms));
}

void LiveStats::on_purge(const PurgeStats& stats) {
  purged_.fetch_add(stats.expired + stats.hopeless,
                    std::memory_order_relaxed);
}

void LiveStats::on_delivery(const LiveDelivery& delivery) {
  const std::lock_guard<std::mutex> lock(mutex_);
  deliveries_.push_back(delivery);
}

std::vector<LiveDelivery> LiveStats::deliveries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return deliveries_;
}

std::size_t LiveStats::valid_deliveries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& d : deliveries_) count += d.valid ? 1 : 0;
  return count;
}

double LiveStats::earning() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const auto& d : deliveries_) {
    if (d.valid) total += d.price;
  }
  return total;
}

}  // namespace bdps
