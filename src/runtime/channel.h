// Closable MPMC blocking channel used by the live runtime's broker threads.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace bdps {

template <typename T>
class Channel {
 public:
  /// Pushes an item; returns false when the channel is already closed.
  bool push(T item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks for the next item; nullopt once closed *and* drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Blocks until at least one item is queued, then drains *everything* in
  /// one lock acquisition (the deque is swapped out, not popped item by
  /// item).  An empty result means closed and drained — same termination
  /// contract as pop().  Batch consumers use this to pay one lock
  /// round-trip per burst instead of per message.
  std::deque<T> pop_all() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    std::deque<T> out;
    out.swap(items_);
    return out;
  }

  /// Non-blocking batched drain into a caller-owned vector (appended in
  /// FIFO order, capacity reused); false when nothing was queued.  The
  /// reactor polls its injector with this every loop iteration, so the
  /// empty case must not allocate.
  bool try_drain(std::vector<T>& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return false;
    for (T& item : items_) out.push_back(std::move(item));
    items_.clear();
    return true;
  }

  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace bdps
