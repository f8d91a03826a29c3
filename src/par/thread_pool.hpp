// ThreadPool: a fixed set of worker threads draining a shared task
// queue. Futures report completion and carry exceptions back to the
// submitter.
//
// The pool is deliberately dumb — no priorities, no work stealing. The
// determinism story lives one layer up in parallel.hpp: work is cut into
// chunks whose *results* are combined in index order, so it never matters
// which worker runs which chunk, or in what order.
//
// Waiters should call run_pending_task() while blocked (parallel.cpp's
// drain loop does) so that nested parallel regions cannot deadlock even
// when every worker is itself inside a wait.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace wan::par {

class ThreadPool {
 public:
  /// Starts `n_workers` threads (0 is allowed: submit() still works and
  /// tasks are then executed by whoever calls run_pending_task()).
  explicit ThreadPool(std::size_t n_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const;

  /// Enqueues a task. The future becomes ready when the task finishes and
  /// rethrows anything the task threw.
  std::future<void> submit(std::function<void()> task);

  /// Runs one queued task on the calling thread, if any is pending.
  /// Returns false when the queue was empty.
  bool run_pending_task();

  /// Ensures at least `n_workers` worker threads exist (never shrinks).
  void grow(std::size_t n_workers);

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// The process-wide pool used by parallel_for / parallel_transform_reduce.
/// Lazily created with no workers; each parallel region grows it to the
/// helpers that region submits (at most min(thread_count(), chunks) - 1),
/// so a large thread count never starts threads no region uses.
ThreadPool& global_pool();

}  // namespace wan::par
