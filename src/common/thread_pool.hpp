// Fixed-size worker pool executing indexed batches.
//
// The pool's one primitive is run_indexed(count, body): execute body(0) ..
// body(count-1), each exactly once, and return when all have finished. This
// shape — rather than a fire-and-forget task queue — is what the MiningEngine
// needs for deterministic batch serving: every result slot is addressed by
// its index, so the output of a batch is independent of which worker ran
// which index and in what order. Workers claim indices from a shared cursor
// under the pool mutex (no per-task allocation, no queue churn).
//
// Exception contract: the first exception thrown by any body is captured
// and rethrown on the calling thread after the whole batch has drained — a
// throwing index never abandons in-flight work, so the caller can reason
// about the batch as all-or-error. SapSession's party pool (one worker per
// role over each exchange step) relies on this.
//
// A pool constructed with zero threads runs batches inline on the calling
// thread; callers use this as the serial reference execution that threaded
// runs must match bit for bit.
//
// Locking discipline is annotated for Clang's -Wthread-safety (DESIGN.md
// §9): batch_/stop_ are SAP_GUARDED_BY(mutex_); the Batch the pointer leads
// to is protected by the same mutex by convention (the analysis tracks the
// pointer, the comment tracks the pointee).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/stopwatch.hpp"

namespace sap {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 = inline serial execution (no workers).
  explicit ThreadPool(std::size_t threads) {
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lk(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Execution totals for observability (obs registries export these at
  /// snapshot time — DESIGN.md §12). Relaxed atomics: racy-exact counts,
  /// no effect on batch execution or its determinism contract.
  struct Stats {
    std::uint64_t batches = 0;   ///< run_indexed calls that executed work
    std::uint64_t tasks = 0;     ///< indices executed
    std::uint64_t busy_ns = 0;   ///< cumulative per-task execution time
    std::uint64_t peak_batch = 0;  ///< largest batch (queue depth high-water)
  };
  [[nodiscard]] Stats stats() const noexcept {
    return {batches_.load(std::memory_order_relaxed),
            tasks_.load(std::memory_order_relaxed),
            busy_ns_.load(std::memory_order_relaxed),
            peak_batch_.load(std::memory_order_relaxed)};
  }

  /// Execute body(0) .. body(count-1), each exactly once, across the workers
  /// (inline when the pool has none); returns after every index has
  /// completed. Rethrows the first body exception once the batch is drained.
  /// One batch runs at a time; concurrent callers are serialized.
  void run_indexed(std::size_t count, const std::function<void(std::size_t)>& body)
      SAP_EXCLUDES(batch_mutex_, mutex_) {
    if (count == 0) return;
    note_batch(count);
    if (workers_.empty()) {
      std::exception_ptr error;
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t t0 = steady_now_ns();
        try {
          body(i);
        } catch (...) {
          if (!error) error = std::current_exception();
        }
        note_task(steady_now_ns() - t0);
      }
      if (error) std::rethrow_exception(error);
      return;
    }
    MutexLock batch_guard(batch_mutex_);
    Batch batch;
    batch.count = count;
    batch.body = &body;
    {
      MutexLock lk(mutex_);
      batch_ = &batch;
    }
    work_cv_.notify_all();
    MutexLock lk(mutex_);
    while (batch.completed != batch.count) done_cv_.wait(lk);
    batch_ = nullptr;
    if (batch.error) std::rethrow_exception(batch.error);
  }

 private:
  /// Batch state is written by workers and the caller under mutex_ (the
  /// batch_ pointer is the guarded hand-off; fields inherit its protection).
  struct Batch {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t next = 0;       ///< next unclaimed index
    std::size_t completed = 0;  ///< indices fully executed
    std::exception_ptr error;   ///< first exception raised by any index
  };

  void worker_loop() SAP_EXCLUDES(mutex_) {
    MutexLock lk(mutex_);
    for (;;) {
      while (!stop_ && !(batch_ != nullptr && batch_->next < batch_->count))
        work_cv_.wait(lk);
      if (stop_) return;
      Batch* batch = batch_;
      const std::size_t index = batch->next++;
      lk.unlock();
      std::exception_ptr err;
      const std::uint64_t t0 = steady_now_ns();
      try {
        (*batch->body)(index);
      } catch (...) {
        err = std::current_exception();
      }
      note_task(steady_now_ns() - t0);
      lk.lock();
      if (err && !batch->error) batch->error = err;
      if (++batch->completed == batch->count) done_cv_.notify_all();
    }
  }

  void note_batch(std::size_t count) noexcept {
    batches_.fetch_add(1, std::memory_order_relaxed);
    tasks_.fetch_add(count, std::memory_order_relaxed);
    std::uint64_t peak = peak_batch_.load(std::memory_order_relaxed);
    while (peak < count &&
           !peak_batch_.compare_exchange_weak(peak, count, std::memory_order_relaxed)) {
    }
  }
  void note_task(std::uint64_t ns) noexcept {
    busy_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> peak_batch_{0};
  Mutex batch_mutex_ SAP_ACQUIRED_BEFORE(mutex_);  ///< serializes run_indexed callers
  Mutex mutex_;                                    ///< protects batch_/stop_ and Batch state
  CondVar work_cv_;
  CondVar done_cv_;
  Batch* batch_ SAP_GUARDED_BY(mutex_) = nullptr;
  bool stop_ SAP_GUARDED_BY(mutex_) = false;
};

}  // namespace sap
