#include "sim/broker_step.h"

#include <stdexcept>
#include <string>

namespace bdps {

BrokerStep::BrokerStep(const Topology* topology_in, const Graph* believed_in,
                       const RoutingFabric* fabric_in,
                       const Strategy* strategy, SimulatorOptions options_in,
                       Rng link_rng)
    : topology(topology_in),
      believed(believed_in),
      fabric(fabric_in),
      options(std::move(options_in)) {
  const std::size_t broker_count = topology->graph.broker_count();
  const std::size_t edge_count = topology->graph.edge_count();
  // One independent stream per true directed edge; the derivation order is
  // the edge-id order, so the mapping is a pure function of the seed and
  // the topology.
  link_rngs.resize(edge_count);
  for (std::size_t e = 0; e < edge_count; ++e) {
    link_rngs[e].rng = link_rng.split();
  }
  brokers.reserve(broker_count);
  for (std::size_t b = 0; b < broker_count; ++b) {
    brokers.emplace_back(static_cast<BrokerId>(b), fabric, believed, strategy,
                         options.processing_delay,
                         /*queues_for_all_links=*/options.repair_fabric !=
                             nullptr);
  }
  // Resolve each queue slot to its true directed link once; every per-link
  // access afterwards is a flat indexed load.
  true_edge_by_slot.resize(broker_count);
  for (std::size_t b = 0; b < broker_count; ++b) {
    auto& edges = true_edge_by_slot[b];
    edges.reserve(brokers[b].queue_count());
    for (const OutputQueue& queue : brokers[b].queues()) {
      const EdgeId true_edge = topology->graph.edge_id(
          static_cast<BrokerId>(b), queue.neighbor());
      if (true_edge == kNoEdge) {
        throw std::logic_error(
            "believed link has no counterpart in the true topology");
      }
      edges.push_back(true_edge);
    }
  }
  if (options.online_estimation) {
    estimators.assign(edge_count,
                      RateEstimator(options.estimator_min_samples));
    estimator_live.assign(edge_count, 0);
    send_begin.assign(edge_count, 0.0);
  }
  if (options.dedup_arrivals) seen.resize(broker_count);
  if (options.serialize_processing) {
    input_queues.resize(broker_count);
    processing_busy.assign(broker_count, 0);
  }
  if (options.faults != nullptr && !options.faults->empty()) {
    allocate_fault_state();
  }
}

void BrokerStep::allocate_fault_state() {
  const std::size_t edge_count = topology->graph.edge_count();
  has_faults = true;
  send_begin.assign(edge_count, 0.0);
  down.assign(edge_count, 0);
  killed.assign(edge_count, 0);
  broker_down.assign(topology->graph.broker_count(), 0);
}

void BrokerStep::check_invariants() const {
  const auto fail = [](const char* what) {
    throw std::logic_error(std::string("BrokerStep: ") + what);
  };
  for (std::size_t b = 0; b < brokers.size(); ++b) {
    const std::vector<OutputQueue>& queues = brokers[b].queues();
    for (std::size_t slot = 0; slot < queues.size(); ++slot) {
      if (queues[slot].link_busy()) fail("a link is busy at quiescence");
      const EdgeId edge = true_edge_by_slot[b][slot];
      if (!queues[slot].empty() &&
          !(has_faults && (down[edge] != 0 || killed[edge] != 0))) {
        fail("copies queued on a link that is up");
      }
    }
  }
  for (const std::uint8_t busy : processing_busy) {
    if (busy != 0) fail("a broker is processing at quiescence");
  }
  for (const auto& pending : input_queues) {
    if (!pending.empty()) fail("an input queue holds messages");
  }
}

std::pair<std::size_t, double> BrokerStep::interest(
    const Message& message) const {
  std::size_t interested = 0;
  double potential = 0.0;
  for (const std::size_t index : fabric->match_all(message)) {
    const Subscription& sub = fabric->subscription(index);
    if (!sub.active_at(message.publish_time())) continue;
    ++interested;
    potential += sub.price;
  }
  return {interested, potential};
}

const RateEstimator* BrokerStep::estimator(EdgeId edge) const {
  if (estimators.empty() || edge < 0 ||
      static_cast<std::size_t>(edge) >= estimators.size() ||
      estimator_live[edge] == 0) {
    return nullptr;
  }
  return &estimators[edge];
}

}  // namespace bdps
