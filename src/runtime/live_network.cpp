#include "runtime/live_network.h"

#include <stdexcept>

namespace bdps {

namespace {

/// The live broker step: the run's PD and purge policy, processing
/// serialized through the fig. 2 input queue (one message per broker per
/// PD; a recorded decision, not a knob).
SimulatorOptions step_options(const LiveOptions& options) {
  SimulatorOptions step;
  step.processing_delay = options.processing_delay;
  step.purge = options.purge;
  step.serialize_processing = true;
  return step;
}

}  // namespace

LiveNetwork::LiveNetwork(const Topology* topology, const RoutingFabric* fabric,
                         const Strategy* strategy, LiveOptions options)
    : topology_(topology),
      options_(options),
      clock_(options.speedup),
      step_(topology, &topology->graph, fabric, strategy,
            step_options(options), RunStreams(options.seed).link) {
  const std::size_t n = topology_->graph.broker_count();
  const bool socket = options_.mode == LiveMode::kSocket;

  if (socket) {
    broker_shard_ = options_.net.broker_shard;
    if (broker_shard_.empty()) {
      broker_shard_.assign(n, static_cast<std::uint32_t>(options_.net.shard));
    }
    if (broker_shard_.size() != n) {
      throw std::invalid_argument(
          "live network: broker_shard size != broker count");
    }
    if (options_.net.shard < 0 ||
        options_.net.shard >= options_.net.shard_count) {
      throw std::invalid_argument("live network: shard out of range");
    }
    cut_edges_of_peer_.resize(options_.net.shard_count);
  }
  // Every link is live state: commands may take any of them down.
  step_.allocate_fault_state();

  // The served links are the served brokers' queues (one per neighbour
  // some subscription routes through).  A shard serves the full
  // transmission of its outgoing cut edges; only the arrival crosses the
  // trunk.
  for (std::size_t b = 0; b < n; ++b) {
    if (!serves(static_cast<BrokerId>(b))) continue;
    for (const EdgeId edge : step_.true_edge_by_slot[b]) {
      ++link_count_;
      const BrokerId to = topology_->graph.edge(edge).to;
      if (!serves(to)) cut_edges_of_peer_[broker_shard_[to]].push_back(edge);
    }
  }

  if (socket) {
    edge_fault_down_.assign(topology_->graph.edge_count(), 0);
    trunk_up_.assign(static_cast<std::size_t>(options_.net.shard_count), 0);
    NetEndpointOptions net_options;
    net_options.shard = options_.net.shard;
    net_options.shard_count = options_.net.shard_count;
    net_options.reconnect_initial_ms = options_.net.reconnect_initial_ms;
    net_options.reconnect_max_ms = options_.net.reconnect_max_ms;
    net_options.bind_host = options_.net.bind_host;
    net_options.peer_hosts = options_.net.peer_hosts;
    endpoint_ = std::make_unique<NetEndpoint>(
        net_options,
        [this](BrokerId target, Message&& message) {
          on_trunk_forward(target, std::move(message));
        },
        [this](std::uint64_t n_acked) { on_trunk_acked(n_acked); },
        [this](int peer, bool up) { on_trunk_peer_state(peer, up); });
  }

  ReactorOptions reactor_options;
  reactor_options.workers = options_.workers;
  if (socket) {
    reactor_options.broker_shard = &broker_shard_;
    reactor_options.shard = static_cast<std::uint32_t>(options_.net.shard);
    reactor_options.endpoint = endpoint_.get();
  }
  reactor_ = std::make_unique<Reactor>(&step_, reactor_options, &clock_,
                                       &stats_, &outstanding_);

  // Cut edges start held: a trunk that is not yet established cannot carry
  // arrivals.  on_trunk_peer_state raises them as trunks come up.
  for (const std::vector<EdgeId>& edges : cut_edges_of_peer_) {
    for (const EdgeId edge : edges) reactor_->set_link_state(edge, false);
  }
}

LiveNetwork::~LiveNetwork() {
  if (reactor_) reactor_->stop();
}

void LiveNetwork::start() {
  if (started_) return;
  started_ = true;
  clock_.start();
  reactor_->start();
}

void LiveNetwork::start_virtual() {
  if (started_) return;
  if (options_.mode != LiveMode::kReactor || reactor_->worker_count() != 1) {
    throw std::logic_error(
        "live network: the virtual clock drives one reactor worker");
  }
  started_ = true;
  clock_.start_virtual();
}

void LiveNetwork::run_until(TimeMs instant) {
  if (!clock_.is_virtual()) {
    throw std::logic_error("live network: run_until needs start_virtual");
  }
  reactor_->run_until(instant);
}

void LiveNetwork::publish(PublisherId publisher,
                          const Message& template_message) {
  publish(publisher, template_message, next_message_id_.fetch_add(1));
}

void LiveNetwork::publish(PublisherId publisher,
                          const Message& template_message, MessageId id) {
  const BrokerId home =
      topology_->publisher_edges.at(static_cast<std::size_t>(publisher));
  if (!serves(home)) {
    throw std::invalid_argument(
        "live network: publisher's edge broker is not in this shard");
  }
  auto message = std::make_shared<Message>(
      id, publisher, clock_.now(), template_message.size_kb(),
      template_message.head(), template_message.allowed_delay());
  outstanding_.fetch_add(1);
  if (!reactor_->publish(home, std::move(message))) {
    outstanding_.fetch_sub(1);
  }
}

void LiveNetwork::drain() {
  while (outstanding_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool LiveNetwork::serves(BrokerId broker) const {
  if (options_.mode != LiveMode::kSocket) return true;
  return broker_shard_[static_cast<std::size_t>(broker)] ==
         static_cast<std::uint32_t>(options_.net.shard);
}

int LiveNetwork::shard_of(BrokerId broker) const {
  return static_cast<int>(broker_shard_[static_cast<std::size_t>(broker)]);
}

void LiveNetwork::set_link_state(BrokerId a, BrokerId b, bool up) {
  for (const EdgeId edge :
       {topology_->graph.edge_id(a, b), topology_->graph.edge_id(b, a)}) {
    if (edge != kNoEdge) set_edge_state(edge, up);
  }
}

void LiveNetwork::set_edge_state(EdgeId edge, bool up) {
  if (edge < 0 ||
      static_cast<std::size_t>(edge) >= topology_->graph.edge_count()) {
    return;
  }
  if (options_.mode != LiveMode::kSocket) {
    reactor_->set_link_state(edge, up);
    return;
  }
  const Edge& e = topology_->graph.edge(edge);
  if (!serves(e.from)) return;  // The owning shard replays this half.
  if (serves(e.to)) {           // Intra-shard: plain reactor churn.
    reactor_->set_link_state(edge, up);
    return;
  }
  // Cut edge: the fault flag folds with the trunk state, and a fault-down
  // severs the trunk for real — reconnect backoff plus this same fold
  // bring the edge back once both halves clear.
  const int peer = shard_of(e.to);
  bool effective = false;
  {
    const std::lock_guard<std::mutex> lock(net_state_mutex_);
    edge_fault_down_[static_cast<std::size_t>(edge)] = up ? 0 : 1;
    effective = up && trunk_up_[static_cast<std::size_t>(peer)] != 0;
  }
  reactor_->set_link_state(edge, effective);
  if (!up) reactor_->drop_trunk(peer);
}

void LiveNetwork::set_broker_state(BrokerId broker, bool up) {
  if (broker < 0 ||
      static_cast<std::size_t>(broker) >= topology_->graph.broker_count()) {
    return;
  }
  if (!serves(broker)) return;
  reactor_->set_broker_state(broker, up);
}

void LiveNetwork::stop() {
  // Socket mode: reactor worker 0 stops the transport at its first pass
  // after the request and settles never-acked trunk copies as losses, so
  // the workers can observe outstanding == 0 and exit.
  if (!reactor_) return;
  reactor_->stop();
#ifndef NDEBUG
  // The workers are joined; with no copy left the overlay is quiescent.
  if (outstanding_.load(std::memory_order_acquire) == 0) {
    step_.check_invariants();
    reactor_->check_invariants();
  }
#endif
}

std::uint16_t LiveNetwork::trunk_port() const {
  return endpoint_ ? endpoint_->port() : 0;
}

void LiveNetwork::connect_trunks(const std::vector<std::uint16_t>& ports) {
  if (started_) {
    throw std::logic_error("live network: connect_trunks after start");
  }
  if (endpoint_) endpoint_->connect(ports);
}

bool LiveNetwork::wait_trunks(std::chrono::milliseconds timeout) {
  return endpoint_ ? endpoint_->wait_connected(timeout) : true;
}

std::uint64_t LiveNetwork::trunk_forwards_sent() const {
  return endpoint_ ? endpoint_->forwards_sent() : 0;
}

std::uint64_t LiveNetwork::trunk_forwards_received() const {
  return endpoint_ ? endpoint_->forwards_received() : 0;
}

std::uint64_t LiveNetwork::trunk_reconnects() const {
  return endpoint_ ? endpoint_->reconnects() : 0;
}

int LiveNetwork::local_trunks() const {
  return endpoint_ ? endpoint_->local_trunks() : 0;
}

void LiveNetwork::on_trunk_forward(BrokerId target, Message&& message) {
  // The target comes off the wire: one off the topology or served by
  // another shard is refused as a loss, before it counts outstanding.
  if (target < 0 ||
      static_cast<std::size_t>(target) >= topology_->graph.broker_count() ||
      !serves(target)) {
    stats_.on_loss(1);
    return;
  }
  // Deposit at the locally served downstream broker.  The increment lands
  // *before* the endpoint acks this forward (the handler runs inline in
  // worker 0's read batch), so the sender's release of its own increment
  // can never leave the cluster-wide sum at zero with the copy alive.
  outstanding_.fetch_add(1);
  reactor_->deposit_trunk(target,
                          std::make_shared<const Message>(std::move(message)));
}

void LiveNetwork::on_trunk_acked(std::uint64_t n) {
  outstanding_.fetch_sub(n, std::memory_order_release);
}

void LiveNetwork::on_trunk_peer_state(int peer, bool up) {
  std::vector<std::pair<EdgeId, bool>> updates;
  {
    const std::lock_guard<std::mutex> lock(net_state_mutex_);
    trunk_up_[static_cast<std::size_t>(peer)] = up ? 1 : 0;
    for (const EdgeId edge : cut_edges_of_peer_[static_cast<std::size_t>(peer)]) {
      updates.emplace_back(
          edge, up && edge_fault_down_[static_cast<std::size_t>(edge)] == 0);
    }
  }
  for (const auto& [edge, state] : updates) {
    reactor_->set_link_state(edge, state);
  }
}

}  // namespace bdps
