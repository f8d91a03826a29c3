#include "src/par/thread_pool.hpp"

namespace wan::par {

ThreadPool::ThreadPool(std::size_t n_workers) {
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::size_t ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> wrapped(std::move(task));
  std::future<void> fut = wrapped.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(wrapped));
  }
  cv_.notify_one();
  return fut;
}

bool ThreadPool::run_pending_task() {
  std::packaged_task<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::grow(std::size_t n_workers) {
  std::lock_guard<std::mutex> lock(mu_);
  while (workers_.size() < n_workers)
    workers_.emplace_back([this] { worker_loop(); });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool(0);
  return pool;
}

}  // namespace wan::par
