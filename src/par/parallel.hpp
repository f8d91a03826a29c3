// Deterministic data parallelism for the synthesis and estimation hot
// paths.
//
// The contract every helper here honors: *the result is a pure function
// of the inputs and the grain, never of the thread count or the
// scheduling order*. Work is cut into contiguous index chunks; each chunk
// is computed independently (by whichever thread picks it up) and chunk
// results are combined strictly in index order. Setting the thread count
// to 1 runs the identical chunked code on the calling thread, so
// `parallel == serial` holds bit-for-bit — the property the par tests
// pin for the synthesizer, variance-time, Whittle, and R/S pipelines.
//
// Exceptions thrown by a chunk abort the remaining chunks and are
// rethrown on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace wan::par {

/// Current worker budget for parallel regions (>= 1). Defaults to
/// std::thread::hardware_concurrency(), overridable with the WAN_THREADS
/// environment variable; 1 forces the serial path.
std::size_t thread_count() noexcept;

/// Sets the worker budget (clamped to >= 1). Takes effect on the next
/// parallel region; the global pool grows to the helpers a region
/// submits (never more than the region has chunks) and never shrinks.
void set_thread_count(std::size_t n) noexcept;

/// Default chunk size for an n-element range: at most 64 chunks. A pure
/// function of n — never of the thread count — so reductions group
/// floating-point operations identically no matter how many workers run.
std::size_t default_grain(std::size_t n) noexcept;

namespace detail {

/// Runs chunk(0..n_chunks-1), each exactly once, distributed over up to
/// thread_count() threads (including the caller). Blocks until all chunks
/// finish; rethrows the first chunk exception. The calling thread helps
/// drain the global pool while waiting, so nested regions cannot
/// deadlock.
void run_chunks(std::size_t n_chunks,
                const std::function<void(std::size_t)>& chunk);

}  // namespace detail

/// Applies body(chunk_begin, chunk_end) over [begin, end) cut into chunks
/// of `grain` indices (grain 0 = default_grain). Bodies must only touch
/// disjoint state per index — there is no ordering between chunks.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Ordered map-reduce: acc = combine(...combine(init, chunk_0)...,
/// chunk_k) where chunk_c = transform(i0) folded left with combine over
/// its indices. The grouping depends only on `grain`, so the result is
/// bitwise identical at any thread count.
template <class T, class Transform, class Combine>
T parallel_transform_reduce(std::size_t begin, std::size_t end,
                            std::size_t grain, T init, Transform&& transform,
                            Combine&& combine) {
  if (end <= begin) return init;
  const std::size_t n = end - begin;
  if (grain == 0) grain = default_grain(n);
  const std::size_t n_chunks = (n + grain - 1) / grain;

  std::vector<T> partial(n_chunks, init);
  detail::run_chunks(n_chunks, [&](std::size_t c) {
    const std::size_t b = begin + c * grain;
    const std::size_t e = b + grain < end ? b + grain : end;
    T acc = transform(b);
    for (std::size_t i = b + 1; i < e; ++i) acc = combine(std::move(acc), transform(i));
    partial[c] = std::move(acc);
  });

  T out = std::move(init);
  for (std::size_t c = 0; c < n_chunks; ++c)
    out = combine(std::move(out), std::move(partial[c]));
  return out;
}

}  // namespace wan::par
