#include "src/stats/variance_time.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "src/par/parallel.hpp"
#include "src/stats/descriptive.hpp"

namespace wan::stats {

std::vector<std::size_t> default_aggregation_levels(std::size_t n,
                                                    std::size_t per_decade,
                                                    std::size_t min_blocks) {
  // Clamp to >= 2 blocks per level: variance_time_plot needs at least two
  // blocks to form a variance, so levels beyond n/2 would only be
  // generated to be skipped.
  const std::size_t eff_blocks = min_blocks < 2 ? 2 : min_blocks;
  std::vector<std::size_t> levels;
  if (n < 2 * eff_blocks) return levels;
  const double m_max =
      static_cast<double>(n) / static_cast<double>(eff_blocks);
  const double step = 1.0 / static_cast<double>(per_decade);
  double lg = 0.0;
  std::size_t last = 0;
  while (true) {
    const auto m = static_cast<std::size_t>(std::llround(std::pow(10.0, lg)));
    if (static_cast<double>(m) > m_max) break;
    if (m != last) {
      levels.push_back(m);
      last = m;
    }
    lg += step;
  }
  return levels;
}

namespace {

VtPoint point_of(const VtLevelAccumulator& acc, double norm) {
  VtPoint p;
  p.m = acc.m();
  p.n_blocks = acc.n_blocks();
  p.variance = acc.variance();
  p.normalized = p.variance / norm;
  return p;
}

double norm_of(double base_mean) {
  return base_mean != 0.0 ? base_mean * base_mean : 1.0;
}

// True when every value is a whole number and the magnitudes sum to at
// most 2^53. Every sum of values of such a series, in any order, is then
// an integer of magnitude at most 2^53, which a double holds exactly, so
// no addition rounds. The magnitude is bounded before the integer
// conversion, which keeps NaN, the infinities and values past 2^53 (where
// the conversion could be undefined) out of it.
bool whole_with_exact_sums(std::span<const double> x) {
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 53;
  std::uint64_t total = 0;
  for (double v : x) {
    const double a = std::fabs(v);
    if (!(a <= static_cast<double>(kLimit))) return false;
    const auto i = static_cast<std::uint64_t>(a);
    if (static_cast<double>(i) != a) return false;
    total += i;  // both terms <= 2^53 here: no wrap
    if (total > kLimit) return false;
  }
  return true;
}

// The plot of a series whole_with_exact_sums accepts, in one pass over
// it. Block sums are differences of the running prefix sum, which equal
// the fold's left-to-right block sums exactly; each block then completes
// through push_block_sum, in block order, like the fold's. The prefix
// total is std::accumulate's sum, so base_mean matches mean(counts).
VarianceTimePlot exact_whole_plot(std::span<const double> counts,
                                  std::span<const std::size_t> usable) {
  struct Cursor {
    VtLevelAccumulator acc;
    std::size_t next_end;  // one past the open block
    double start_sum;      // prefix sum where the open block starts
  };
  std::vector<Cursor> cursors;
  cursors.reserve(usable.size());
  for (std::size_t m : usable)
    cursors.push_back({VtLevelAccumulator(m), m, 0.0});

  const std::size_t n = counts.size();
  std::vector<double> prefix(std::min(kVtExactChunk, n));
  double running = 0.0;
  for (std::size_t c0 = 0; c0 < n; c0 += kVtExactChunk) {
    const std::size_t len = std::min(kVtExactChunk, n - c0);
    for (std::size_t i = 0; i < len; ++i) {
      running += counts[c0 + i];
      prefix[i] = running;
    }
    const std::size_t c1 = c0 + len;
    for (Cursor& c : cursors) {
      for (; c.next_end <= c1; c.next_end += c.acc.m()) {
        const double p = prefix[c.next_end - c0 - 1];
        c.acc.push_block_sum(p - c.start_sum);
        c.start_sum = p;
      }
    }
  }

  VarianceTimePlot plot;
  plot.base_mean = running / static_cast<double>(n);
  const double norm = norm_of(plot.base_mean);
  plot.points.reserve(cursors.size());
  for (const Cursor& c : cursors) plot.points.push_back(point_of(c.acc, norm));
  return plot;
}

}  // namespace

VarianceTimePlot variance_time_plot(std::span<const double> counts,
                                    std::span<const std::size_t> levels) {
  if (counts.size() < 16)
    throw std::invalid_argument("variance_time_plot: series too short");

  std::vector<std::size_t> default_levels;
  if (levels.empty()) {
    default_levels = default_aggregation_levels(counts.size());
    levels = default_levels;
  }

  std::vector<std::size_t> usable;
  usable.reserve(levels.size());
  for (std::size_t m : levels) {
    if (m == 0 || counts.size() / m < 2) continue;
    usable.push_back(m);
  }

  if (whole_with_exact_sums(counts)) return exact_whole_plot(counts, usable);

  VarianceTimePlot plot;
  plot.base_mean = mean(counts);
  const double norm = norm_of(plot.base_mean);
  // Levels are independent; each task reads the shared base series and
  // writes only its own slot, combined in level order.
  plot.points.resize(usable.size());
  par::parallel_for(0, usable.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      VtLevelAccumulator acc(usable[i]);
      acc.push(counts);
      plot.points[i] = point_of(acc, norm);
    }
  });
  return plot;
}

VtAccumulator::VtAccumulator(std::span<const std::size_t> levels) {
  levels_.reserve(levels.size());
  for (std::size_t m : levels) {
    if (m == 0) continue;
    levels_.emplace_back(m);
  }
}

VarianceTimePlot VtAccumulator::finish() const {
  VarianceTimePlot plot;
  plot.base_mean = n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
  const double norm = norm_of(plot.base_mean);
  for (const VtLevelAccumulator& lvl : levels_) {
    if (lvl.n_blocks() < 2) continue;  // the span version's usable filter
    plot.points.push_back(point_of(lvl, norm));
  }
  return plot;
}

LinearFit VarianceTimePlot::fit_slope(std::size_t m_lo, std::size_t m_hi,
                                      std::size_t min_blocks) const {
  std::vector<double> xs, ys;
  for (const VtPoint& p : points) {
    if (p.m < m_lo || p.m > m_hi || p.n_blocks < min_blocks) continue;
    if (p.normalized <= 0.0) continue;
    xs.push_back(std::log10(static_cast<double>(p.m)));
    ys.push_back(std::log10(p.normalized));
  }
  if (xs.size() < 2)
    throw std::invalid_argument("VarianceTimePlot: not enough points to fit");
  return linear_fit(xs, ys);
}

double VarianceTimePlot::hurst(std::size_t m_lo, std::size_t m_hi) const {
  return 1.0 + fit_slope(m_lo, m_hi).slope / 2.0;
}

}  // namespace wan::stats
