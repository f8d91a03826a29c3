#include "src/par/parallel.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "src/par/thread_pool.hpp"

namespace wan::par {

namespace {

std::size_t initial_thread_count() {
  if (const char* env = std::getenv("WAN_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

std::atomic<std::size_t>& thread_count_slot() {
  static std::atomic<std::size_t> count(initial_thread_count());
  return count;
}

}  // namespace

std::size_t thread_count() noexcept {
  return thread_count_slot().load(std::memory_order_relaxed);
}

void set_thread_count(std::size_t n) noexcept {
  thread_count_slot().store(n >= 1 ? n : 1, std::memory_order_relaxed);
}

std::size_t default_grain(std::size_t n) noexcept {
  const std::size_t grain = (n + 63) / 64;
  return grain >= 1 ? grain : 1;
}

namespace detail {

void run_chunks(std::size_t n_chunks,
                const std::function<void(std::size_t)>& chunk) {
  if (n_chunks == 0) return;
  const std::size_t threads =
      thread_count() < n_chunks ? thread_count() : n_chunks;
  if (threads <= 1) {
    for (std::size_t c = 0; c < n_chunks; ++c) chunk(c);
    return;
  }

  ThreadPool& pool = global_pool();
  pool.grow(threads - 1);  // one worker per helper submitted below
  std::atomic<std::size_t> next(0);
  std::atomic<bool> failed(false);
  std::mutex err_mu;
  std::exception_ptr err;

  // Chunks are claimed through a shared counter; which thread computes
  // which chunk is irrelevant because callers only depend on per-chunk
  // results (parallel_transform_reduce recombines them in index order).
  auto drain = [&] {
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < n_chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
      if (failed.load(std::memory_order_relaxed)) break;
      try {
        chunk(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::future<void>> helpers;
  helpers.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i)
    helpers.push_back(pool.submit(drain));
  drain();

  for (std::future<void>& f : helpers) {
    // Help run other queued work while waiting so that nested parallel
    // regions make progress even when every worker is blocked here.
    while (f.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!pool.run_pending_task())
        f.wait_for(std::chrono::microseconds(50));
    }
    f.get();
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace detail

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (grain == 0) grain = default_grain(n);
  const std::size_t n_chunks = (n + grain - 1) / grain;
  detail::run_chunks(n_chunks, [&](std::size_t c) {
    const std::size_t b = begin + c * grain;
    const std::size_t e = b + grain < end ? b + grain : end;
    body(b, e);
  });
}

}  // namespace wan::par
