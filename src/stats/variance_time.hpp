// Variance-time analysis (Section IV): smooth a count process by
// averaging over non-overlapping blocks of M observations and watch how
// the variance of the smoothed process decays with M.
//
// Poisson-like (short-range dependent) processes decay as 1/M: slope -1
// on a log-log plot. Long-range dependent processes decay as
// M^(2H - 2) with H > 1/2: slope shallower than -1. The paper normalizes
// variances by the squared mean of the base series so traces with
// different packet counts are comparable.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/stats/regression.hpp"

namespace wan::stats {

/// One point of a variance-time plot.
struct VtPoint {
  std::size_t m = 1;          ///< aggregation level
  double variance = 0.0;      ///< Var of the block-mean process
  double normalized = 0.0;    ///< variance / mean(base)^2
  std::size_t n_blocks = 0;   ///< sample size at this level
};

struct VarianceTimePlot {
  std::vector<VtPoint> points;
  double base_mean = 0.0;     ///< mean of the unaggregated series

  /// OLS fit of log10(normalized variance) vs log10(M) over points with
  /// m in [m_lo, m_hi] and at least `min_blocks` blocks.
  LinearFit fit_slope(std::size_t m_lo = 1,
                      std::size_t m_hi = SIZE_MAX,
                      std::size_t min_blocks = 8) const;

  /// Hurst estimate from the fitted slope: H = 1 + slope/2.
  double hurst(std::size_t m_lo = 1, std::size_t m_hi = SIZE_MAX) const;
};

/// Default aggregation levels: ~`per_decade` log-spaced values of M from 1
/// up to n/min_blocks.
std::vector<std::size_t> default_aggregation_levels(std::size_t n,
                                                    std::size_t per_decade = 5,
                                                    std::size_t min_blocks = 8);

/// Computes the variance-time plot of a count series at the given levels
/// (or default levels if empty).
///
/// Two paths, chosen from the input, give the same bits. When every value
/// is a whole number and the magnitudes sum to at most 2^53, every sum of
/// consecutive values is an integer a double holds exactly, so one serial
/// pass serves all levels: block sums are differences of a running prefix
/// sum, taken kVtExactChunk values at a time, and up to four levels'
/// Welford chains advance in one loop body so their divisions overlap.
/// Any other series (fractional, NaN, infinite or larger) is folded level
/// by level, the levels spread over the par pool. Both paths finish each
/// block through VtLevelAccumulator::push_block_sum, in block order per
/// level.
VarianceTimePlot variance_time_plot(std::span<const double> counts,
                                    std::span<const std::size_t> levels = {});

/// Prefix sums the exact whole-number pass of variance_time_plot holds at
/// once. Public so tests can put aggregation levels on the chunk edges.
inline constexpr std::size_t kVtExactChunk = 4096;

/// One aggregation level of a variance-time analysis: folds base
/// observations into blocks of m and maintains Welford moments of the
/// completed block means. VtAccumulator and variance_time_plot's fold
/// push every observation through this code; the exact whole-number pass
/// hands it whole block sums. Each path completes a block with the same
/// push_block_sum, which is what makes the plots bit-identical.
class VtLevelAccumulator {
 public:
  VtLevelAccumulator() = default;
  explicit VtLevelAccumulator(std::size_t m) : m_(m) {}

  void push(double x) {
    block_sum_ += x;
    if (++in_block_ == m_) {
      push_block_sum(block_sum_);
      block_sum_ = 0.0;
      in_block_ = 0;
    }
  }

  /// Completes one block whose m observations sum to `block_sum`, without
  /// touching the open block push(x) fills.
  void push_block_sum(double block_sum) {
    push_block_mean(block_sum / static_cast<double>(m_));
  }

  /// Column form: same element order, so bit-identical to push(x) per
  /// element — but the whole series streams through one level at a time,
  /// keeping the level's accumulator state in registers instead of
  /// round-tripping every level through memory per observation.
  void push(std::span<const double> xs) {
    for (double x : xs) push(x);
  }

  std::size_t m() const { return m_; }
  std::size_t n_blocks() const { return n_blocks_; }
  std::size_t in_block() const { return in_block_; }
  /// Population variance of the completed block means; 0 if no blocks.
  double variance() const {
    return n_blocks_ == 0 ? 0.0 : m2_ / static_cast<double>(n_blocks_);
  }

 private:
  void push_block_mean(double bm) {
    ++n_blocks_;
    const double delta = bm - mean_;
    mean_ += delta / static_cast<double>(n_blocks_);
    m2_ += delta * (bm - mean_);
  }

  std::size_t m_ = 1;
  double block_sum_ = 0.0;
  std::size_t in_block_ = 0;
  std::size_t n_blocks_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Multi-level streaming variance-time analysis: one pass over the count
/// series updates every aggregation level at once, in O(#levels) state.
/// finish() yields the same plot variance_time_plot produces on the full
/// series (levels with fewer than 2 completed blocks are dropped, exactly
/// like the span version's usable-level filter). It is the fold the
/// parity tests hold variance_time_plot's exact pass against.
class VtAccumulator {
 public:
  /// Levels must be the final choice (e.g. default_aggregation_levels of
  /// the known series length) — a streamed pass cannot revisit data.
  explicit VtAccumulator(std::span<const std::size_t> levels);

  void push(double x) {
    sum_ += x;
    ++n_;
    for (VtLevelAccumulator& lvl : levels_) lvl.push(x);
  }

  /// Column form: bit-identical to push(x) per element. Elements stay
  /// outermost on purpose — per element the level updates are mutually
  /// independent, so the CPU overlaps all the levels' accumulator
  /// chains; a levels-outer orientation would serialize one Welford
  /// dependency chain per full pass and measures ~2.5x slower.
  void push(std::span<const double> xs) {
    for (double x : xs) push(x);
  }

  std::size_t count() const { return n_; }
  VarianceTimePlot finish() const;

 private:
  std::vector<VtLevelAccumulator> levels_;
  double sum_ = 0.0;
  std::size_t n_ = 0;
};

}  // namespace wan::stats
