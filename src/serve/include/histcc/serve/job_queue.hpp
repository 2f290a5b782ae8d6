#ifndef HISTCC_SERVE_JOB_QUEUE_HPP
#define HISTCC_SERVE_JOB_QUEUE_HPP

/// \file job_queue.hpp
/// Bounded MPMC queue with backpressure — the admission control of the
/// serving layer.  Any number of submitters push concurrently (blocking on
/// a full queue, or failing fast via try_push), any number of pool workers
/// pop.  close() starts shutdown: pushes are refused, pops drain what is
/// already queued and then return nullopt, and drain() lets an aborting
/// shutdown claim the leftovers so every queued job can still be resolved.
///
/// A mutex + two condition variables is deliberately boring: submissions
/// are orders of magnitude rarer than the element accesses the sharded
/// race-ledger store optimises for, and a lock-free MPMC ring would buy
/// nothing measurable at serving rates (see docs/serving.md).

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "histcc/util/require.hpp"

namespace histcc::serve {

template <typename T>
class JobQueue {
 public:
  explicit JobQueue(std::size_t capacity) : capacity_(capacity) {
    HISTCC_REQUIRE(capacity >= 1, "queue capacity must be positive");
  }

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Block until there is room (backpressure), then enqueue.  Returns
  /// false — leaving `item` untouched — if the queue was closed.
  bool push(T&& item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Fail-fast enqueue: returns false — leaving `item` untouched — when
  /// the queue is full or closed.
  bool try_push(T&& item) {
    std::scoped_lock lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Block until an item is available and return it; nullopt once the
  /// queue is closed *and* empty (a closed queue still drains).
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// Refuse all future pushes and wake every waiter.  Idempotent.
  void close() {
    std::scoped_lock lock(mutex_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Remove and return everything still queued (an aborting shutdown
  /// resolves these as cancelled instead of running them).
  [[nodiscard]] std::vector<T> drain() {
    std::scoped_lock lock(mutex_);
    std::vector<T> out;
    out.reserve(items_.size());
    while (!items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_all();
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] bool closed() const {
    std::scoped_lock lock(mutex_);
    return closed_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace histcc::serve

#endif  // HISTCC_SERVE_JOB_QUEUE_HPP
