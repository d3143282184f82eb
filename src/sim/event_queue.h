// Deterministic discrete-event queue.
//
// A binary min-heap ordered by (time, sequence number): two events at the
// same instant pop in insertion order, which makes whole simulations
// reproducible from the seed alone.  The payload is a small tagged struct
// rather than std::function to keep the hot loop allocation-free.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "message/message.h"

namespace bdps {

enum class EventType : std::uint8_t {
  kPublish,       // A publisher injects a message into its edge broker.
  kArrival,       // A message reaches `broker` (reception; counts traffic).
  kProcessed,     // The processing stage (PD) completed at `broker`.
  kSendComplete,  // The in-flight send `broker` -> `neighbor` finished.
  kFault,         // A compiled fault batch fires (`broker` = batch index).
};

struct Event {
  TimeMs time = 0.0;
  EventType type = EventType::kPublish;
  BrokerId broker = kNoBroker;
  BrokerId neighbor = kNoBroker;
  std::shared_ptr<const Message> message;
};

class EventQueue {
 public:
  void push(Event event);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Smallest (time, sequence) event; undefined when empty.
  const Event& top() const { return heap_.front().event; }

  Event pop();

 private:
  struct Item {
    Event event;
    std::uint64_t sequence;
  };
  static bool later(const Item& a, const Item& b) {
    if (a.event.time != b.event.time) return a.event.time > b.event.time;
    return a.sequence > b.sequence;
  }

  void sift_up(std::size_t index);
  void sift_down(std::size_t index);

  std::vector<Item> heap_;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace bdps
