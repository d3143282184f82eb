// Deterministic discrete-event queue.
//
// Events pop in (time, sequence number) order: two events at the same
// instant pop in insertion order, which makes whole simulations
// reproducible from the seed alone.  The payload is a small tagged struct
// rather than std::function to keep the hot loop allocation-free.
//
// Most of a simulated hop's events are pushed in time order: an arrival
// lands at the current instant, a PD expiry a constant PD later, and the
// publishes are scheduled sorted.  So beside one binary min-heap the queue
// keeps one FIFO lane each for kPublish, kArrival and kProcessed.  A push
// joins its kind's lane when its time is not earlier than the lane's tail
// — sequence numbers only grow, so every lane stays sorted by (time,
// sequence) — and goes to the heap otherwise.  top() and pop() take the
// least (time, sequence) among the heap top and the lane heads, so the pop
// order is exactly the one a single heap would give; the heap is left with
// the send completions, the fault batches and the out-of-order pushes.
#pragma once

#include <array>
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

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Smallest (time, sequence) event; undefined when empty.
  const Event& top() const { return front().event; }

  Event pop();

  /// Throws std::logic_error unless the heap property holds, every lane is
  /// nondecreasing in (time, sequence) and holds only its own kind, and
  /// size() equals the heap count plus the lane counts.
  void check_invariants() const;

 private:
  struct Item {
    Event event;
    std::uint64_t sequence;
  };
  static bool later(const Item& a, const Item& b) {
    if (a.event.time != b.event.time) return a.event.time > b.event.time;
    return a.sequence > b.sequence;
  }

  /// A FIFO ring of items; capacity is a power of two, grown by doubling.
  class Lane {
   public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    const Item& front() const { return slots_[head_]; }
    const Item& at(std::size_t k) const {
      return slots_[(head_ + k) & (slots_.size() - 1)];
    }
    /// Time of the newest item; only meaningful when nonempty.
    TimeMs back_time() const { return back_time_; }
    void push_back(Item item);
    Item pop_front();

   private:
    std::vector<Item> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    TimeMs back_time_ = 0.0;
  };

  /// kPublish, kArrival and kProcessed have lanes, indexed by their value.
  static constexpr std::size_t kLanes = 3;
  static constexpr std::size_t kHeap = kLanes;

  /// kHeap or the lane holding the smallest (time, sequence) item.
  std::size_t front_source() const;
  const Item& front() const {
    const std::size_t source = front_source();
    return source == kHeap ? heap_.front() : lanes_[source].front();
  }

  void sift_up(std::size_t index);
  void sift_down(std::size_t index);

  std::vector<Item> heap_;
  std::array<Lane, kLanes> lanes_;
  std::size_t size_ = 0;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace bdps
