// Concurrent queues used by the runtime's schedulers.
//
// These are deliberately mutex-based: the runtime's tasks are coarse-grained
// (micro- to milli-seconds), so queue contention is not the bottleneck, and
// the simple implementations are easy to reason about and test. The
// work-stealing deque follows the classic owner-pops-back / thief-pops-front
// discipline of Chase–Lev, with a lock instead of the lock-free protocol.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace peppher {

/// One worker thread's parking spot, the building block of the runtime's
/// targeted-wakeup protocol (one ParkSlot per worker instead of one global
/// condition variable that every event broadcasts to).
///
/// Worker side (single consumer):
///
///   task = queue.pop();
///   if (!task) {
///     slot.announce();          // publish intent-to-park...
///     task = queue.pop();       // ...then re-check the queue (Dekker)
///     if (!task && !slot.park(stop_pred)) return;  // stopped
///   }
///
/// Producer side (any thread): after making work visible (queue insert under
/// the queue's own lock), call unpark(). The announce/re-check pair makes
/// the protocol lossless: if the producer reads the parked flag as false,
/// the mutex chain through the queue guarantees the worker's re-check pop
/// observes the inserted item; if it reads true, a wake token is delivered
/// under the slot mutex, where the worker consumes it before sleeping.
/// Tokens are sticky — an unpark() that races with the worker between
/// announce() and park() is consumed by park() without blocking.
class ParkSlot {
 public:
  /// Publishes that the owning worker is about to park. Must be followed by
  /// a re-check of the work source and then park() or cancel().
  void announce() noexcept { parked_.store(true, std::memory_order_seq_cst); }

  /// Withdraws an announce() after the re-check found work.
  void cancel() noexcept { parked_.store(false, std::memory_order_relaxed); }

  /// Blocks until a wake token arrives or `stopped()` turns true. Returns
  /// true if a token was consumed (re-check for work), false if the slot
  /// was stopped without a token (the worker should exit).
  template <typename StopPred>
  bool park(StopPred stopped) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return token_ || stopped(); });
    const bool woken = token_;
    token_ = false;
    lock.unlock();
    parked_.store(false, std::memory_order_relaxed);
    return woken;
  }

  /// Delivers a wake token if the owner is parked (or about to park).
  /// Returns true if a token was delivered, false if the owner was not
  /// parked — in that case the owner is mid-loop and will re-check its work
  /// source before parking, so no wake is needed.
  bool unpark() {
    if (!parked_.load(std::memory_order_seq_cst)) return false;
    bool first;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      first = !token_;
      token_ = true;
    }
    // A pending token already had its notify: the owner is on its way.
    if (first) cv_.notify_one();
    return true;
  }

  /// True while the owner is announced/parked (load only, no token).
  bool is_parked() const noexcept {
    return parked_.load(std::memory_order_seq_cst);
  }

  /// Wakes the owner so it re-evaluates its stop predicate (no token). The
  /// caller must have made the predicate's state visible beforehand.
  void poke() {
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool token_ = false;              ///< guarded by mutex_
  std::atomic<bool> parked_{false};
};

/// Blocking multi-producer multi-consumer FIFO with shutdown support.
template <typename T>
class BlockingQueue {
 public:
  /// Enqueues an item and wakes one waiter. Returns false if closed.
  bool push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained;
  /// returns nullopt only in the latter case.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Closes the queue: pending items can still be popped, pushes fail, and
  /// blocked consumers wake up.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

/// Work-stealing deque: the owning worker pushes/pops at the back (LIFO for
/// locality), thieves steal from the front (FIFO for fairness).
template <typename T>
class WorkStealingDeque {
 public:
  void push(T item) {
    std::lock_guard<std::mutex> lock(mutex_);
    items_.push_back(std::move(item));
  }

  /// Owner-side pop (back). Non-blocking.
  std::optional<T> pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.back());
    items_.pop_back();
    return item;
  }

  /// Thief-side steal (front). Non-blocking.
  std::optional<T> steal() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::deque<T> items_;
};

}  // namespace peppher
