#include "sim/event_queue.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace bdps {

static_assert(static_cast<std::size_t>(EventType::kPublish) == 0 &&
                  static_cast<std::size_t>(EventType::kArrival) == 1 &&
                  static_cast<std::size_t>(EventType::kProcessed) == 2,
              "the lane kinds index lanes_ by their value");

void EventQueue::Lane::push_back(Item item) {
  if (count_ == slots_.size()) {
    // Unroll the ring into a buffer twice the size, oldest item first.
    std::vector<Item> grown(slots_.empty() ? 16 : 2 * slots_.size());
    for (std::size_t k = 0; k < count_; ++k) {
      grown[k] = std::move(slots_[(head_ + k) & (slots_.size() - 1)]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }
  back_time_ = item.event.time;
  slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(item);
  ++count_;
}

EventQueue::Item EventQueue::Lane::pop_front() {
  Item item = std::move(slots_[head_]);
  head_ = (head_ + 1) & (slots_.size() - 1);
  --count_;
  return item;
}

void EventQueue::push(Event event) {
  const auto kind = static_cast<std::size_t>(event.type);
  Item item{std::move(event), next_sequence_++};
  ++size_;
  if (kind < kLanes) {
    Lane& lane = lanes_[kind];
    if (lane.empty() || item.event.time >= lane.back_time()) {
      lane.push_back(std::move(item));
      return;
    }
  }
  heap_.push_back(std::move(item));
  sift_up(heap_.size() - 1);
}

std::size_t EventQueue::front_source() const {
  std::size_t source = kHeap;
  const Item* best = heap_.empty() ? nullptr : &heap_.front();
  for (std::size_t k = 0; k < kLanes; ++k) {
    if (lanes_[k].empty()) continue;
    const Item& head = lanes_[k].front();
    if (best == nullptr || later(*best, head)) {
      best = &head;
      source = k;
    }
  }
  return source;
}

Event EventQueue::pop() {
  const std::size_t source = front_source();
  --size_;
  if (source != kHeap) return lanes_[source].pop_front().event;
  Event result = std::move(heap_.front().event);
  heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return result;
}

void EventQueue::check_invariants() const {
  const auto fail = [](const std::string& what) {
    throw std::logic_error("EventQueue: " + what);
  };
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    if (later(heap_[(i - 1) / 2], heap_[i])) {
      fail("heap order broken at slot " + std::to_string(i));
    }
  }
  std::size_t count = heap_.size();
  for (std::size_t k = 0; k < kLanes; ++k) {
    const Lane& lane = lanes_[k];
    for (std::size_t j = 0; j < lane.size(); ++j) {
      if (static_cast<std::size_t>(lane.at(j).event.type) != k) {
        fail("lane " + std::to_string(k) + " holds another kind");
      }
      if (j > 0 && later(lane.at(j - 1), lane.at(j))) {
        fail("lane " + std::to_string(k) + " is out of order at " +
             std::to_string(j));
      }
    }
    if (!lane.empty() &&
        lane.back_time() != lane.at(lane.size() - 1).event.time) {
      fail("lane " + std::to_string(k) + "'s tail time is stale");
    }
    count += lane.size();
  }
  if (count != size_) {
    fail("size " + std::to_string(size_) + " is not the heap and lane count " +
         std::to_string(count));
  }
}

// Both sifts move the sifted item once, into the hole left where it comes
// to rest, instead of swapping at every level.  (time, sequence) keys are
// unique, so each level settles on the element a swap-based sift would
// pick and the heap evolves identically.

void EventQueue::sift_up(std::size_t index) {
  Item item = std::move(heap_[index]);
  while (index > 0) {
    const std::size_t parent = (index - 1) / 2;
    if (!later(heap_[parent], item)) break;
    heap_[index] = std::move(heap_[parent]);
    index = parent;
  }
  heap_[index] = std::move(item);
}

void EventQueue::sift_down(std::size_t index) {
  const std::size_t n = heap_.size();
  Item item = std::move(heap_[index]);
  for (;;) {
    const std::size_t left = 2 * index + 1;
    if (left >= n) break;
    const std::size_t right = left + 1;
    const std::size_t child =
        right < n && later(heap_[left], heap_[right]) ? right : left;
    if (!later(item, heap_[child])) break;
    heap_[index] = std::move(heap_[child]);
    index = child;
  }
  heap_[index] = std::move(item);
}

}  // namespace bdps
