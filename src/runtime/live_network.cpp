#include "runtime/live_network.h"

#include <algorithm>
#include <stdexcept>

#include "broker/fanout.h"
#include "broker/output_queue.h"

namespace bdps {

LiveNetwork::LiveNetwork(const Topology* topology, const RoutingFabric* fabric,
                         const Strategy* strategy, LiveOptions options)
    : topology_(topology),
      fabric_(fabric),
      strategy_(strategy),
      options_(options),
      clock_(options.speedup) {
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
  }

  // Which directed links some subscription routes over.
  out_links_.resize(n);
  std::vector<EdgeId> needed;
  for (std::size_t b = 0; b < n; ++b) {
    for (const SubscriptionEntry& entry :
         fabric_->table(static_cast<BrokerId>(b)).entries()) {
      if (entry.is_local()) continue;
      const EdgeId edge =
          topology_->graph.edge_id(static_cast<BrokerId>(b), entry.next_hop);
      if (edge == kNoEdge) {
        throw std::invalid_argument(
            "live network: table references missing link");
      }
      needed.push_back(edge);
    }
  }
  std::sort(needed.begin(), needed.end(),
            [this](EdgeId a, EdgeId b) {
              const Edge& ea = topology_->graph.edge(a);
              const Edge& eb = topology_->graph.edge(b);
              if (ea.from != eb.from) return ea.from < eb.from;
              return ea.to < eb.to;
            });
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());

  // The engines' per-edge stream discipline: split once per *true* edge in
  // edge-id order, whether or not the link is served, so a link's stream is
  // a pure function of (seed, topology) — never of the subscription set,
  // and never of the shard layout (each stream is consumed by exactly one
  // shard, the one serving the edge).
  Rng link_root(options_.seed);
  std::vector<Rng> streams;
  streams.reserve(topology_->graph.edge_count());
  for (std::size_t e = 0; e < topology_->graph.edge_count(); ++e) {
    streams.push_back(link_root.split());
  }

  if (socket) cut_edges_of_peer_.resize(options_.net.shard_count);

  std::vector<LiveLinkSpec> specs;
  specs.reserve(needed.size());
  for (const EdgeId edge : needed) {
    const Edge& e = topology_->graph.edge(edge);
    // Links follow their *source* broker's shard; a shard serves the full
    // transmission simulation of its outgoing cut edges and only the
    // deposit crosses the trunk.
    if (socket && broker_shard_[e.from] !=
                      static_cast<std::uint32_t>(options_.net.shard)) {
      continue;
    }
    specs.push_back(LiveLinkSpec{e.from, e.to, edge, e.link.params(),
                                 streams[static_cast<std::size_t>(edge)]});
    // (from, to)-sorted iteration makes each out_links_ row ascending by
    // neighbour — the order FanOutGrouper::bind requires.
    out_links_[e.from].push_back(LinkRef{e.to, edge});
    if (socket && broker_shard_[e.to] !=
                      static_cast<std::uint32_t>(options_.net.shard)) {
      cut_edges_of_peer_[broker_shard_[e.to]].push_back(edge);
    }
  }
  link_count_ = specs.size();

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
  reactor_options.processing_delay = options_.processing_delay;
  reactor_options.purge = options_.purge;
  reactor_options.workers = options_.workers;
  reactor_options.wheel_tick_ms = options_.wheel_tick_ms;
  if (socket) {
    reactor_options.broker_shard = &broker_shard_;
    reactor_options.shard = static_cast<std::uint32_t>(options_.net.shard);
    reactor_options.endpoint = endpoint_.get();
  }
  reactor_ = std::make_unique<Reactor>(topology_, fabric_, strategy_,
                                       reactor_options, &clock_, &stats_,
                                       &outstanding_, std::move(specs),
                                       &out_links_);

  // Cut edges start held: a trunk that is not yet established cannot carry
  // deposits.  on_trunk_peer_state raises them as trunks come up.
  for (const std::vector<EdgeId>& edges : cut_edges_of_peer_) {
    for (const EdgeId edge : edges) reactor_->set_link_state(edge, false);
  }
}

LiveNetwork::~LiveNetwork() { stop(); }

void LiveNetwork::start() {
  if (started_) return;
  started_ = true;
  clock_.start();
  reactor_->start();
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
  if (reactor_) reactor_->stop();
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
