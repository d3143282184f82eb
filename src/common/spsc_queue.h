// Wait-free single-producer / single-consumer queue.
//
// The live reactor (runtime/reactor.h) routes cross-worker events through
// one mailbox per (source worker, destination worker) pair: exactly one
// worker thread pushes and exactly one thread drains, so the queue needs no
// locks — a singly-linked list with a stub node where the producer only
// touches the tail and the consumer only touches the head (Vyukov's
// unbounded SPSC design).  The only shared word is each node's `next`
// pointer, published with release and read with acquire, so the value
// written before a push is visible to the pop that observes the node.
//
// Contract: at most one thread calls push() at a time and at most one
// thread calls pop()/drain()/empty() at a time (they may be different
// threads, concurrently).  Which thread plays which role may change over
// the queue's life only across an external synchronisation point.
#pragma once

#include <atomic>
#include <utility>
#include <vector>

namespace bdps {

template <typename T>
class SpscQueue {
 public:
  SpscQueue() : head_(new Node), tail_(head_) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Moves are for container setup only — never while any thread is
  /// pushing or popping.
  SpscQueue(SpscQueue&& other) noexcept
      : head_(other.head_), tail_(other.tail_) {
    other.head_ = new Node;
    other.tail_ = other.head_;
  }
  SpscQueue& operator=(SpscQueue&&) = delete;

  ~SpscQueue() {
    Node* node = head_;
    while (node != nullptr) {
      Node* next = node->next.load(std::memory_order_relaxed);
      delete node;
      node = next;
    }
  }

  /// Producer side.  Appends one value; never blocks.
  void push(T value) {
    Node* node = new Node;
    node->value = std::move(value);
    // tail_ is producer-private; the release store on next publishes the
    // node (and its value) to the consumer.
    tail_->next.store(node, std::memory_order_release);
    tail_ = node;
  }

  /// Consumer side.  Pops the oldest value into `out`; false when empty.
  bool pop(T& out) {
    Node* next = head_->next.load(std::memory_order_acquire);
    if (next == nullptr) return false;
    out = std::move(next->value);
    Node* old = head_;
    head_ = next;
    delete old;
    return true;
  }

  /// Consumer side.  Appends every queued value to `out` in push order.
  void drain(std::vector<T>& out) {
    T value;
    while (pop(value)) out.push_back(std::move(value));
  }

  /// Consumer side.  May race with a concurrent push (a false "empty" for
  /// an element mid-publication is inherent to SPSC).
  bool empty() const {
    return head_->next.load(std::memory_order_acquire) == nullptr;
  }

 private:
  struct Node {
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  Node* head_;  // Consumer-owned stub; head_->next is the oldest element.
  Node* tail_;  // Producer-owned last node.
};

}  // namespace bdps
