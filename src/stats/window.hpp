// Evictable sliding-window twins of the streaming accumulators.
//
// The PR-2 accumulators (BinCounts, Moment, BurstLull, the Appendix-A
// tester) only ever grow: they answer "what does the WHOLE stream look
// like". A monitor instead asks "what do the most recent W
// observations look like", re-asked every slide — and re-feeding the
// window from scratch costs O(W) per slide. The windowed twins here
// share one shape: a ring of sub-accumulators ("buckets"), each
// covering a fixed span of the stream. Pushing stays O(1) amortized
// (the open bucket absorbs observations; a full bucket closes into the
// ring, evicting the oldest by overwrite), and the window's state is
// the in-order merge of the resident buckets.
//
// Exactness: bin counts are exact integer adds and burst/lull runs
// merge by exact concatenation, so a window whose edges align with
// bucket boundaries is bit-identical to a batch accumulator fed only
// the window's observations. Moment buckets combine by Chan's formula —
// deterministic for a fixed bucket partition, equal to the serial pass
// to rounding (like every Welford merge). The Appendix-A ring stores
// per-interval outcomes, which are pure functions of each interval's
// own arrivals, so the windowed verdict is bit-identical to the batch
// test over the window whenever the window edges align to the
// interval grid.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/poisson_test.hpp"

namespace wan::stats {

/// Ring of sub-accumulators over the most recent observations: the
/// open bucket absorbs pushes; every `bucket_size` observations it
/// closes into the ring, which keeps the newest `n_buckets` closed
/// buckets (older ones are overwritten — eviction is O(1), no state is
/// ever rebuilt). merged() folds the resident buckets oldest-first
/// into a fresh accumulator, so for accumulators whose merge() means
/// "as if pushed here next" (BurstLullAccumulator) the result is
/// bit-identical to a batch accumulator over the window; for Welford
/// merges (MomentAccumulator) it is deterministic and equal to
/// rounding.
///
/// Acc must be default-constructible with push(double) and
/// merge(const Acc&).
template <class Acc>
class BucketRing {
 public:
  /// Throws std::invalid_argument unless bucket_size and n_buckets >= 1.
  BucketRing(std::size_t bucket_size, std::size_t n_buckets)
      : bucket_size_(bucket_size), ring_(n_buckets) {
    if (bucket_size == 0 || n_buckets == 0)
      throw std::invalid_argument(
          "BucketRing: bucket_size and n_buckets must be >= 1");
  }

  void push(double x) {
    open_.push(x);
    if (++in_open_ == bucket_size_) {
      ring_[head_] = std::move(open_);
      head_ = (head_ + 1) % ring_.size();
      ++closed_;
      open_ = Acc{};
      in_open_ = 0;
    }
  }

  void push(std::span<const double> xs) {
    for (double x : xs) push(x);
  }

  std::size_t bucket_size() const { return bucket_size_; }
  std::size_t n_buckets() const { return ring_.size(); }
  /// Closed buckets resident in the ring (<= n_buckets()).
  std::size_t closed_buckets() const {
    return closed_ < ring_.size() ? static_cast<std::size_t>(closed_)
                                  : ring_.size();
  }
  /// Observations in the open (not yet closed) bucket.
  std::size_t open_observations() const { return in_open_; }
  /// Observations currently covered by merged(): the resident closed
  /// buckets plus the open bucket.
  std::uint64_t window_observations() const {
    return static_cast<std::uint64_t>(closed_buckets()) * bucket_size_ +
           in_open_;
  }

  /// Window state: resident closed buckets merged oldest-first, then
  /// the open bucket. Call on a bucket boundary (open empty) for the
  /// exact trailing-window semantics.
  Acc merged() const {
    Acc out;
    const std::size_t n = closed_buckets();
    const std::size_t start = closed_ < ring_.size() ? 0 : head_;
    for (std::size_t k = 0; k < n; ++k)
      out.merge(ring_[(start + k) % ring_.size()]);
    if (in_open_ > 0) out.merge(open_);
    return out;
  }

 private:
  std::size_t bucket_size_ = 1;
  std::vector<Acc> ring_;
  std::size_t head_ = 0;      ///< next slot to (over)write
  std::uint64_t closed_ = 0;  ///< buckets ever closed
  Acc open_{};
  std::size_t in_open_ = 0;
};

/// Windowed moments: Welford buckets, Chan-combined at merged().
using WindowedMoments = BucketRing<MomentAccumulator>;

/// Windowed burst/lull runs: concatenation-merged buckets, so merged()
/// is bit-identical to a batch BurstLullAccumulator over the window.
using WindowedBurstLull = BucketRing<BurstLullAccumulator>;

/// Index of the cell of the grid anchored at t0 with cells `width` wide
/// that holds t: floor((t - t0) / width + tolerance), tolerance in cells.
/// Throws std::invalid_argument, naming t, t0 and width, unless that
/// quotient is finite, >= 0 and below 2^64, the range a uint64_t index
/// holds.
std::uint64_t grid_index(double t, double t0, double width,
                         double tolerance = 0.0);

/// Sliding-window twin of BinCountsAccumulator: a ring of per-bin
/// counts covering the most recent `window_bins` COMPLETED bins of a
/// fixed absolute grid anchored at t0, plus the open (current) bin.
/// Event times must be nondecreasing across bin boundaries (the
/// streaming contract; within one bin order is free). A bin completes
/// when time first advances past its right edge — via a later event or
/// advance_to() — at which point the observer (if set) sees its count,
/// in grid order, exactly once; completed bins older than the window
/// are evicted by overwrite.
///
/// Counts are exact small-integer adds, so window_counts() over aligned
/// edges reproduces stats::bin_counts of the window's events
/// bit-for-bit.
class WindowedBinCounts {
 public:
  /// Throws std::invalid_argument unless bin > 0 and window_bins >= 1.
  WindowedBinCounts(double t0, double bin, std::size_t window_bins);

  /// Called with each completed bin's count, in grid order, before the
  /// bin can be evicted. The analyzer chains its per-bin accumulators
  /// (segment ring, bucket rings, slide logic) off this hook.
  void set_bin_observer(std::function<void(double)> observer) {
    observer_ = std::move(observer);
  }

  /// Counts the event into its bin; throws std::invalid_argument when
  /// t is not finite, precedes t0 or an already-completed bin, or lies
  /// 2^64 or more bins past t0 (grid_index).
  void add(double t);
  void add(std::span<const double> times) {
    for (double t : times) add(t);
  }

  /// Completes every bin whose right edge is <= t without adding an
  /// event (zero-count bins included). The bin containing t becomes
  /// the open bin.
  void advance_to(double t);

  double t0() const { return t0_; }
  double bin() const { return bin_; }
  std::size_t window_bins() const { return ring_.size(); }
  std::uint64_t events() const { return events_; }
  /// Bins completed so far; the open bin is completed_bins().
  std::uint64_t completed_bins() const { return completed_; }
  /// Count so far in the open bin.
  double open_count() const { return open_; }

  /// The resident window: the newest min(completed_bins, window_bins)
  /// completed bins, oldest first. out is cleared.
  void window_counts(std::vector<double>& out) const;

 private:
  void complete_bins_through(std::uint64_t bin_index);

  double t0_ = 0.0;
  double bin_ = 1.0;
  std::vector<double> ring_;    ///< completed-bin counts, slot = index % size
  std::uint64_t completed_ = 0; ///< == index of the open bin
  double open_ = 0.0;           ///< count in the open bin
  std::uint64_t events_ = 0;
  std::function<void(double)> observer_;
};

/// Sliding-window Appendix-A tester: a ring of per-interval outcomes
/// over the most recent `window_intervals` completed intervals of the
/// absolute grid [t0 + k*I, t0 + (k+1)*I). Arrivals are pushed in time
/// order; an interval is tested exactly once, when time first advances
/// past its right edge, and its outcome — a pure function of its own
/// arrivals (test_poisson_interval) — rides the ring until evicted.
/// result() aggregates the resident outcomes, bit-identical to
/// test_poisson_arrivals over the window's arrivals when the window
/// edges align to the interval grid.
class WindowedPoissonTest {
 public:
  /// Throws std::invalid_argument unless config.interval_length > 0
  /// and window_intervals >= 1.
  WindowedPoissonTest(const PoissonTestConfig& config, double t0,
                      std::size_t window_intervals);

  /// Throws std::invalid_argument when t is not finite, precedes t0,
  /// goes backwards across an already-completed interval, or lies 2^64
  /// or more intervals past t0 (grid_index).
  void push(double t);
  void push(std::span<const double> times) {
    for (double t : times) push(t);
  }

  /// Completes every interval whose right edge is <= t.
  void advance_to(double t);

  std::uint64_t completed_intervals() const { return completed_; }
  /// Verdict over the resident completed intervals (oldest first).
  PoissonTestResult result() const;

 private:
  void complete_through(std::uint64_t interval_index);

  PoissonTestConfig config_;
  double t0_ = 0.0;
  std::vector<IntervalOutcome> ring_;
  std::uint64_t completed_ = 0;  ///< == index of the open interval
  std::vector<double> open_times_;
};

}  // namespace wan::stats
