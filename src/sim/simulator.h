// Discrete-event simulator of the broker overlay (§6.1's evaluation rig).
//
// The event semantics — what a publish, arrival, processing step, send
// completion or fault batch does to the overlay — live in BrokerStep
// (sim/broker_step.h), shared with the live reactor.  This class only
// owns the ordering: one EventQueue popped in (time, sequence) order, each
// event handed to the step with Effects that apply collector and trace
// effects at once, push children onto the same queue and draw each send's
// rate when it starts.
//
// Time advances through the step's event types; sends occupy their link
// for `size * TR` where TR is sampled per send from the *true* link model,
// while every scheduling decision uses the brokers' *believed* parameters —
// the gap between the two is the estimation ablation.
#pragma once

#include <memory>

#include "sim/broker_step.h"
#include "sim/collector.h"
#include "sim/event_queue.h"
#include "trace/trace.h"

namespace bdps {

class Simulator {
 public:
  /// `topology` provides the ground-truth links sends are sampled from;
  /// `believed` the parameters brokers schedule with (usually the same
  /// graph, and in any case one whose directed links all exist in the true
  /// graph); both must outlive the simulator, as must `fabric` and
  /// `strategy` (the shared scheduling policy every queue mints its
  /// SchedulerState from).
  Simulator(const Topology* topology, const Graph* believed,
            const RoutingFabric* fabric, const Strategy* strategy,
            SimulatorOptions options, Rng link_rng);

  /// Schedules the publication of `message` (its publish_time / publisher
  /// fields say when and where).  Call before run().
  void schedule_publish(std::shared_ptr<const Message> message);

  /// Attaches an event trace (optional; nullptr detaches).  Must outlive
  /// run().
  void set_trace(TraceSink* sink) { trace_ = sink; }

  /// Runs to completion (event queue drained or horizon reached).
  void run();

  TimeMs now() const { return now_; }
  const Collector& collector() const { return collector_; }
  const Broker& broker(BrokerId id) const { return core_.brokers[id]; }

  /// Online estimator for a directed link of the *true* graph, by edge id;
  /// nullptr when online_estimation is off, the id is out of range, or the
  /// link never carried a send.
  const RateEstimator* estimator(EdgeId edge) const {
    return core_.estimator(edge);
  }

 private:
  struct Effects;

  BrokerStep core_;
  EventQueue events_;
  Collector collector_;
  TimeMs now_ = 0.0;
  TraceSink* trace_ = nullptr;
  StepScratch scratch_;
};

}  // namespace bdps
