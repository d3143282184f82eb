#include "sim/simulator.h"

#include <utility>

namespace bdps {

/// One global heap: children go straight onto it, each send's rate is
/// drawn when it starts, and its arrival is pushed at completion.
struct Simulator::Effects : DirectRecord {
  using Event = bdps::Event;
  Simulator* sim;

  explicit Effects(Simulator* s)
      : DirectRecord{&s->collector_, s->trace_}, sim(s) {}

  /// The publish step: the message enters the overlay, so it is stamped
  /// here and eq. (1) reads the stamp.
  std::pair<std::size_t, double> interest(const Event& publish) {
    SubscriptionIndex::Scratch& scratch = sim->scratch_.match;
    sim->core_.fabric->stamp(*publish.message, scratch);
    return sim->core_.interest(*publish.message, scratch);
  }
  void push(Event child) { sim->events_.push(std::move(child)); }
  double draw_rate(EdgeId edge) { return sim->core_.draw_rate(edge); }
  void send(Event completion, EdgeId, TimeMs) {
    sim->events_.push(std::move(completion));
  }
  bool claim_deposit(Event&) { return false; }
  bool send_cut(EdgeId edge, TimeMs start, TimeMs end) const {
    return sim->core_.lost_in_flight(edge, start, end);
  }
  bool processing_cut(BrokerId broker, TimeMs from, TimeMs to) const {
    return sim->core_.lost_in_processing(broker, from, to);
  }
  StepScratch& scratch() { return sim->scratch_; }
};

Simulator::Simulator(const Topology* topology, const Graph* believed,
                     const RoutingFabric* fabric, const Strategy* strategy,
                     SimulatorOptions options, Rng link_rng)
    : core_(topology, believed, fabric, strategy, std::move(options),
            link_rng) {
  // Fault batches are pushed before anything else so they take the lowest
  // sequence numbers: at an equal instant a batch fires ahead of arrivals
  // and completions pushed at construction.  An absent/empty plan pushes
  // nothing, leaving the no-fault event numbering (and the golden matrix)
  // untouched.
  if (core_.has_faults) {
    const auto& batches = core_.options.faults->batches();
    for (std::size_t i = 0; i < batches.size(); ++i) {
      Event event;
      event.time = batches[i].at;
      event.type = EventType::kFault;
      event.broker = static_cast<BrokerId>(i);  // Batch index.
      events_.push(std::move(event));
    }
  }
}

void Simulator::schedule_publish(std::shared_ptr<const Message> message) {
  Event event;
  event.time = message->publish_time();
  event.type = EventType::kPublish;
  event.broker = core_.topology->publisher_edges.at(
      static_cast<std::size_t>(message->publisher()));
  event.message = std::move(message);
  events_.push(std::move(event));
}

void Simulator::run() {
  Effects fx(this);
  while (!events_.empty()) {
    if (events_.top().time > core_.options.horizon) break;
    // The pop moves the event (and its message ref) out of the heap; the
    // step moves the payload onward, so routing a message through an event
    // costs no shared_ptr refcount churn.
    Event event = events_.pop();
    now_ = event.time;
    core_.step(fx, event);
  }
#ifndef NDEBUG
  if (events_.empty()) core_.check_invariants();
#endif
}

}  // namespace bdps
