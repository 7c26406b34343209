// Blocking FIFO queue: the checkpointer's job queue, the commit
// pipeline's upload acks and the streaming-replication baseline's link.
//
// Put blocks while a bounded queue is full and ForcePut ignores the bound;
// Take and TakeFor block until an element arrives or the queue is closed
// and drained. Ginja's Safety bound (S, TS) is not a queue capacity: the
// commit pipeline enforces it from its sequencer counters
// (CommitPipeline::Unconfirmed and the oldest pending enqueue time).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

namespace ginja {

template <typename T>
class BlockingQueue {
 public:
  // capacity == 0 means unbounded.
  explicit BlockingQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  // Blocks while the queue is full. Returns false if the queue was closed.
  bool Put(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || !Full(); });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Non-blocking put that ignores the capacity bound (used for priority
  // control messages). Returns false if closed.
  bool ForcePut(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Blocks until an element is available; nullopt when closed and drained.
  std::optional<T> Take() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  // Blocks up to `micros`; nullopt on timeout or closed-and-drained.
  std::optional<T> TakeFor(std::uint64_t micros) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait_for(lock, std::chrono::microseconds(micros),
                        [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  std::size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  bool Empty() const { return Size() == 0; }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool Closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  // Blocks until the queue is empty (all elements consumed) or closed.
  void WaitEmpty() {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || items_.empty(); });
  }

 private:
  bool Full() const { return capacity_ != 0 && items_.size() >= capacity_; }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace ginja
