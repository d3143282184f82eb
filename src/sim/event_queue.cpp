#include "sim/event_queue.h"

#include <utility>

namespace bdps {

void EventQueue::push(Event event) {
  heap_.push_back(Item{std::move(event), next_sequence_++});
  sift_up(heap_.size() - 1);
}

Event EventQueue::pop() {
  Event result = std::move(heap_.front().event);
  heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return result;
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
