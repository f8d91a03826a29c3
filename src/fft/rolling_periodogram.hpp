// Rolling (sliding-window) periodogram estimation: the amortized
// spectral engine behind the windowed analyzer.
//
// The batch AveragedPeriodogram answers "what is the averaged spectrum
// of THIS series"; a monitor needs "what is the averaged spectrum of
// the LAST W samples", re-asked every slide. Recomputing the window
// costs one FFT per segment — O(W log W) per slide. SegmentRing keeps
// the per-segment periodograms in a ring instead: a slide pushes the
// newly completed segment (one O(m log m) FFT through the cached
// RfftPlan) and the ring forgets the oldest segment by overwrite, so
// the per-slide FFT work is a single segment no matter how wide the
// window is. Summation happens at finish() time, oldest segment first
// — the exact floating-point order AveragedPeriodogram::push uses —
// so the rolling window's averaged periodogram is bit-identical to a
// batch AveragedPeriodogram fed the same window, not merely close.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/fft/periodogram.hpp"

namespace wan::fft {

/// Ring of per-segment periodograms over the most recent `capacity`
/// segments of length `segment_length` (Welch's segment convention:
/// each segment centered on its own mean, like AveragedPeriodogram).
///
/// Costs: push_segment is one cached-plan rfft, O(m log m); eviction is
/// a slot overwrite, O(1); finish() sums the resident segments'
/// ordinates, O(capacity * m). A full-window recompute would instead
/// pay O(capacity * m log m) in FFTs alone — the finish() sum is the
/// price of exactness, and it is the cheaper term.
class SegmentRing {
 public:
  /// Throws std::invalid_argument unless segment_length >= 4 and even
  /// (AveragedPeriodogram's constraint — odd lengths would shift the
  /// frequency grid) and capacity >= 1.
  SegmentRing(std::size_t segment_length, std::size_t capacity);

  /// Accumulates one segment, evicting the oldest once the ring is
  /// full; throws unless x.size() == segment_length().
  void push_segment(std::span<const double> x);

  /// Sample-wise feeder: buffers samples and calls push_segment for
  /// every completed segment. pending() tells how many samples sit in
  /// the partial segment.
  void push_samples(std::span<const double> xs);
  std::size_t pending() const { return pending_.size(); }

  std::size_t segment_length() const { return segment_length_; }
  std::size_t capacity() const { return capacity_; }
  /// Segments currently resident (<= capacity()).
  std::size_t segments() const;
  /// Segments ever pushed (resident + evicted).
  std::uint64_t total_segments() const { return total_; }

  /// Averaged periodogram of the resident segments, summed oldest
  /// segment first — bit-identical to AveragedPeriodogram::finish()
  /// over the same segments in the same order. Throws std::logic_error
  /// before the first complete segment.
  Periodogram finish() const;

  /// The resident window as an AveragedPeriodogram, whose state
  /// (ordinate sums, segment count) is exactly what a batch
  /// accumulator fed the same window would hold.
  AveragedPeriodogram averaged() const;

 private:
  std::size_t segment_length_ = 0;
  std::size_t capacity_ = 0;
  std::size_t n_ordinates_ = 0;
  std::uint64_t total_ = 0;       ///< segments ever pushed
  std::size_t head_ = 0;          ///< next slot to (over)write
  std::vector<double> slots_;     ///< capacity x n_ordinates, ring order
  std::vector<double> pending_;   ///< partial segment from push_samples
};

/// Multiresolution rolling sweep: one SegmentRing per 2x aggregation
/// level, fed by a pairwise-mean cascade — the windowed counterpart of
/// SpectrumCascade for the aggregation-stability sweep (paper Section
/// VII: H should agree across levels for self-similar traffic).
///
/// Level 0 sees the base samples; level l+1 receives (a + b) / 2 for
/// each consecutive level-l pair, which is exactly aggregate_mean(., 2)
/// applied l times (same adds, same divide — bit-equal). Level l's ring
/// holds base_capacity / 2^l segments of the same segment_length, so
/// every level's window spans the same base-sample range. Amortized
/// cost: level l completes a segment every 2^l base segments, so the
/// whole cascade costs < 2 FFTs per base segment regardless of depth.
class SegmentRingCascade {
 public:
  /// levels + 1 rings (level 0 .. levels). Throws std::invalid_argument
  /// unless base_capacity is divisible by 2^levels with a nonzero
  /// quotient (each level's ring must hold a whole number of segments
  /// covering the same window).
  SegmentRingCascade(std::size_t segment_length, std::size_t base_capacity,
                     std::size_t levels);

  void push_samples(std::span<const double> xs);

  std::size_t levels() const { return rings_.size() - 1; }
  const SegmentRing& ring(std::size_t level) const { return rings_[level]; }

 private:
  std::vector<SegmentRing> rings_;
  std::vector<double> carry_;      ///< per-level pending pair member
  std::vector<bool> has_carry_;
};

}  // namespace wan::fft
