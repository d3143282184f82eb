// Metrics collection for one simulation run.
//
// Tracks the three evaluation metrics of §6.1 —
//   * delivery rate (eq. 1): sum(ds_i) / sum(ts_i),
//   * total earning (eq. 2): sum over valid deliveries of price(s),
//   * message number: every message reception by a broker —
// plus diagnostic counters (purges, latency moments) used by the tests and
// the EXPERIMENTS.md narrative.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"
#include "scheduling/purge.h"
#include "stats/welford.h"

namespace bdps {

class Collector {
 public:
  /// Called once per published message with ts_i (the number of interested
  /// subscribers system-wide) and the earning ceiling (sum of their prices).
  void on_publish(std::size_t interested, double potential_earning);

  /// Called on every message reception by a broker.
  void on_reception() { ++receptions_; }

  /// Called when an edge broker hands a message to a local subscriber.
  void on_delivery(TimeMs delay, TimeMs effective_deadline, double price);

  /// Per-price-tier breakdown of an SSD run (which tiers actually earn?).
  struct TierStats {
    std::size_t deliveries = 0;
    std::size_t valid = 0;
    double earning = 0.0;
  };

  void on_purge(const PurgeStats& stats) { purges_ += stats; }

  /// Copies destroyed by link/broker failures (failure injection).
  void on_loss(std::size_t copies) { lost_copies_ += copies; }

  /// Observes an input-queue depth (serialized processing only); tracks
  /// the maximum — footnote 2's "rarely happens" claim, quantified.
  void on_input_queue_depth(std::size_t depth) {
    if (depth > max_input_queue_) max_input_queue_ = depth;
  }
  std::size_t max_input_queue() const { return max_input_queue_; }

  /// Called once per applied fault batch with the routing rows its repair
  /// rewrote (0 without repair).  A storm that never takes effect shows up
  /// here as zero batches.
  void on_fault_batch(std::size_t repaired_rows) {
    ++fault_batches_;
    repaired_rows_ += repaired_rows;
  }
  std::size_t fault_batches() const { return fault_batches_; }
  std::size_t repaired_rows() const { return repaired_rows_; }

  // ---- Aggregates ----

  std::size_t published() const { return published_; }
  std::size_t receptions() const { return receptions_; }
  std::size_t deliveries() const { return deliveries_; }
  std::size_t valid_deliveries() const { return valid_deliveries_; }
  std::size_t total_interested() const { return total_interested_; }
  const PurgeStats& purges() const { return purges_; }
  std::size_t lost_copies() const { return lost_copies_; }

  /// Eq. (1); 0 when nothing was offered.
  double delivery_rate() const;

  /// Eq. (2) over valid deliveries.
  double earning() const { return earning_; }

  /// Sum of price over every (message, interested subscriber) pair — the
  /// earning an oracle with infinite bandwidth would collect.
  double potential_earning() const { return potential_earning_; }

  /// Delay statistics over *valid* deliveries.
  const Welford& valid_delay() const { return valid_delay_; }

  /// Tier breakdown keyed by price (one entry per distinct price seen).
  const std::map<double, TierStats>& tiers() const { return tiers_; }

 private:
  std::size_t published_ = 0;
  std::size_t receptions_ = 0;
  std::size_t deliveries_ = 0;
  std::size_t valid_deliveries_ = 0;
  std::size_t total_interested_ = 0;
  double earning_ = 0.0;
  double potential_earning_ = 0.0;
  PurgeStats purges_;
  std::size_t lost_copies_ = 0;
  std::size_t max_input_queue_ = 0;
  std::size_t fault_batches_ = 0;
  std::size_t repaired_rows_ = 0;
  Welford valid_delay_;
  std::map<double, TierStats> tiers_;
};

}  // namespace bdps
