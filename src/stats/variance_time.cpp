#include "src/stats/variance_time.hpp"

#include <cmath>
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

// One point of the plot via the shared single-pass level accumulator —
// the identical arithmetic VtAccumulator::push applies per level, so a
// streamed pass reproduces the span results bit-for-bit.
VtPoint vt_point_at_level(std::span<const double> counts, std::size_t m,
                          double norm) {
  VtLevelAccumulator acc(m);
  acc.push(counts);

  VtPoint p;
  p.m = m;
  p.n_blocks = acc.n_blocks();
  p.variance = acc.variance();
  p.normalized = p.variance / norm;
  return p;
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

  VarianceTimePlot plot;
  plot.base_mean = mean(counts);
  const double norm =
      plot.base_mean != 0.0 ? plot.base_mean * plot.base_mean : 1.0;

  std::vector<std::size_t> usable;
  usable.reserve(levels.size());
  for (std::size_t m : levels) {
    if (m == 0 || counts.size() / m < 2) continue;
    usable.push_back(m);
  }

  // Levels are independent; each task reads the shared base series and
  // writes only its own slot, combined in level order.
  plot.points.resize(usable.size());
  par::parallel_for(0, usable.size(), 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      plot.points[i] = vt_point_at_level(counts, usable[i], norm);
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
  const double norm =
      plot.base_mean != 0.0 ? plot.base_mean * plot.base_mean : 1.0;
  for (const VtLevelAccumulator& lvl : levels_) {
    if (lvl.n_blocks() < 2) continue;  // the span version's usable filter
    VtPoint p;
    p.m = lvl.m();
    p.n_blocks = lvl.n_blocks();
    p.variance = lvl.variance();
    p.normalized = p.variance / norm;
    plot.points.push_back(p);
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
