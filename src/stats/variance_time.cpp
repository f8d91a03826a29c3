#include "src/stats/variance_time.hpp"

#include <algorithm>
#include <array>
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

// One level of the exact pass: its accumulator, where its open block
// stands, and the sums of its blocks that end in the current chunk.
struct Lane {
  VtLevelAccumulator acc;
  std::size_t next_end;      // one past the open block
  double start_sum = 0.0;    // prefix sum where the open block starts
  std::vector<double> sums;  // this chunk's block sums, in block order
  std::size_t blocks = 0;    // how many of them
};

// Pushes block sums [lo, hi) of lanes[0, N) in one loop body. The N
// Welford chains do not depend on each other, so their divisions overlap.
// Each runs on a local copy of its accumulator, and the lane loop is
// unrolled (GCC leaves it rolled at -O2), so that every chain's state
// stays in registers.
template <std::size_t N>
void push_lanes(Lane* lanes, std::size_t lo, std::size_t hi) {
  std::array<VtLevelAccumulator, N> acc;
  std::array<const double*, N> sums;
  for (std::size_t l = 0; l < N; ++l) {
    acc[l] = lanes[l].acc;
    sums[l] = lanes[l].sums.data();
  }
  for (std::size_t j = lo; j < hi; ++j) {
#pragma GCC unroll 4
    for (std::size_t l = 0; l < N; ++l) acc[l].push_block_sum(sums[l][j]);
  }
  for (std::size_t l = 0; l < N; ++l) lanes[l].acc = acc[l];
}

constexpr std::size_t kLanes = 4;
using PushLanes = void (*)(Lane*, std::size_t, std::size_t);
constexpr PushLanes kPushLanes[kLanes + 1] = {
    nullptr, push_lanes<1>, push_lanes<2>, push_lanes<3>, push_lanes<4>};

// The plot of a series whole_with_exact_sums accepts, in one pass over
// it. Block sums are differences of the running prefix sum, which equal
// the fold's left-to-right block sums exactly; each level then completes
// its blocks through push_block_sum, in block order, like the fold's. The
// prefix total is std::accumulate's sum, so base_mean matches
// mean(counts).
//
// Per chunk, every level's block sums are gathered first; then groups of
// kLanes levels advance together. A group's loop is split where each
// level's blocks in the chunk run out, which needs the levels' block
// counts not to increase along the group. Levels above kVtExactChunk have
// 0 or 1 blocks per chunk and callers may pass levels unsorted, so a
// group whose counts do increase advances level by level instead.
VarianceTimePlot exact_whole_plot(std::span<const double> counts,
                                  std::span<const std::size_t> usable) {
  const std::size_t n = counts.size();
  const std::size_t chunk = std::min(kVtExactChunk, n);
  std::vector<Lane> lanes;
  lanes.reserve(usable.size());
  for (std::size_t m : usable)
    lanes.push_back({VtLevelAccumulator(m), m, 0.0,
                     std::vector<double>(chunk / m + 1)});

  std::vector<double> prefix(chunk);
  double running = 0.0;
  for (std::size_t c0 = 0; c0 < n; c0 += kVtExactChunk) {
    const std::size_t len = std::min(kVtExactChunk, n - c0);
    for (std::size_t i = 0; i < len; ++i) {
      running += counts[c0 + i];
      prefix[i] = running;
    }
    const std::size_t c1 = c0 + len;
    for (Lane& lane : lanes) {
      std::size_t k = 0;
      for (; lane.next_end <= c1; lane.next_end += lane.acc.m()) {
        const double p = prefix[lane.next_end - c0 - 1];
        lane.sums[k++] = p - lane.start_sum;
        lane.start_sum = p;
      }
      lane.blocks = k;
    }

    for (std::size_t g = 0; g < lanes.size(); g += kLanes) {
      Lane* group = lanes.data() + g;
      const std::size_t width = std::min(kLanes, lanes.size() - g);
      bool nonincreasing = true;
      for (std::size_t l = 1; l < width; ++l)
        nonincreasing &= group[l].blocks <= group[l - 1].blocks;
      if (!nonincreasing) {
        for (std::size_t l = 0; l < width; ++l)
          push_lanes<1>(group + l, 0, group[l].blocks);
        continue;
      }
      // [lo, hi) advances the `live` levels that still have blocks there.
      std::size_t lo = 0;
      for (std::size_t live = width; live > 0; --live) {
        const std::size_t hi = group[live - 1].blocks;
        kPushLanes[live](group, lo, hi);
        lo = hi;
      }
    }
  }

  VarianceTimePlot plot;
  plot.base_mean = running / static_cast<double>(n);
  const double norm = norm_of(plot.base_mean);
  plot.points.reserve(lanes.size());
  for (const Lane& lane : lanes) plot.points.push_back(point_of(lane.acc, norm));
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
