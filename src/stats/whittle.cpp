#include "src/stats/whittle.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/fft/periodogram.hpp"
#include "src/par/parallel.hpp"

namespace wan::stats {

double fgn_spectral_density(double lambda, double hurst) {
  if (!(lambda > 0.0 && lambda <= M_PI))
    throw std::invalid_argument("fgn_spectral_density: lambda must be in (0, pi]");
  if (!(hurst > 0.0 && hurst < 1.0))
    throw std::invalid_argument("fgn_spectral_density: H must be in (0, 1)");

  const double two_h = 2.0 * hurst;
  const double exponent = -(two_h + 1.0);

  // Central term plus j = 1..J pairs.
  constexpr int kJ = 50;
  double s = std::pow(lambda, exponent);
  for (int j = 1; j <= kJ; ++j) {
    const double a = 2.0 * M_PI * j + lambda;
    const double b = 2.0 * M_PI * j - lambda;
    s += std::pow(a, exponent) + std::pow(b, exponent);
  }
  // Integral tail correction: sum_{j > J} g(2 pi j +- lambda) ~
  // Integral_{J+1/2}^{inf} [g(2 pi t + lambda) + g(2 pi t - lambda)] dt.
  const double edge = 2.0 * M_PI * (kJ + 0.5);
  s += (std::pow(edge + lambda, -two_h) + std::pow(edge - lambda, -two_h)) /
       (2.0 * M_PI * two_h);

  const double cf =
      std::sin(M_PI * hurst) * std::tgamma(two_h + 1.0) / (2.0 * M_PI);
  // 1 - cos(lambda) written as 2 sin^2(lambda/2): the naive form loses
  // all precision for lambda below ~1e-8, and with H near 1 most of the
  // spectral mass lives exactly there.
  const double half = std::sin(0.5 * lambda);
  return 2.0 * cf * (2.0 * half * half) * s;
}

double farima_spectral_density(double lambda, double d) {
  if (!(lambda > 0.0 && lambda <= M_PI))
    throw std::invalid_argument("farima_spectral_density: lambda in (0, pi]");
  if (!(d > -0.5 && d < 0.5))
    throw std::invalid_argument("farima_spectral_density: d in (-1/2, 1/2)");
  const double s = 2.0 * std::sin(0.5 * lambda);
  return std::pow(s, -2.0 * d) / (2.0 * M_PI);
}

namespace {

// fGn fit range in theta == H, shared by the from-scratch estimator and
// the WhittleRefitter lattice so the two paths agree on boundary cases.
constexpr double kFgnThetaMin = 0.02;
constexpr double kFgnThetaMax = 0.99;

using DensityFn = double (*)(double lambda, double theta);

// Per-candidate-theta density evaluation strategy. prepare(theta) runs
// once per candidate; at(j) is then called for every ordinate from the
// reduction workers, so it must be pure reads.
class DensityEvaluator {
 public:
  virtual ~DensityEvaluator() = default;
  virtual void prepare(double theta) = 0;
  virtual double at(std::size_t j) const = 0;
};

// Calls the full density function at every ordinate — the reference
// path, and the right one for cheap densities (fARIMA is one pow()).
class DirectEvaluator final : public DensityEvaluator {
 public:
  DirectEvaluator(std::span<const double> freq, DensityFn density)
      : freq_(freq), density_(density) {}
  void prepare(double theta) override { theta_ = theta; }
  double at(std::size_t j) const override {
    return density_(freq_[j], theta_);
  }

 private:
  std::span<const double> freq_;
  DensityFn density_;
  double theta_ = 0.5;
};

// Caches the expensive part of the fGn density across ordinates.
//
// f(lambda; H) = 2 c_f(H) * 2 sin^2(lambda/2) * [lambda^e + S(lambda; H)],
// e = -(2H+1), where S is the j >= 1 series plus its integral tail —
// ~100 pow() calls. S is smooth and even on [0, pi] (its singular
// lambda^e sibling is split out and computed exactly per ordinate from a
// cached log lambda), so per candidate H it is evaluated with its
// analytic derivative on a 513-node uniform grid and cubic-Hermite
// interpolated everywhere else. Max relative interpolation error is
// ~1e-9 over H in (0, 1) — an order below the series truncation error
// of fgn_spectral_density itself — while the per-candidate cost stops
// scaling with m: the golden-section search over a 2^20-sample
// periodogram goes from ~5e9 to ~5e7 pow-equivalents.
//
// What depends only on the frequency grid lives in FgnGrid, built once
// and only read after: the 2 sin^2(lambda/2) weight and log lambda per
// ordinate, and the set of nodes the grid reads. An ordinate reads just
// the two nodes around it, so a grid coarser than the node spacing
// reads few of them — the monitor's 74-ordinate grid reads 148 of 513 —
// and prepare() evaluates only those. Each node is computed on its own
// and the others are never read, so every density bit is what a pass
// over all 513 gives; a dense grid reads them all. The per-candidate
// node values live in the evaluator, so evaluators on one grid can run
// on different threads.
constexpr int kFgnNodes = 513;
constexpr double kFgnStep = M_PI / (kFgnNodes - 1);

/// The interpolation interval holding lambda (the last one for lambda
/// == pi): its left node, and lambda's offset into it in node steps.
struct FgnInterval {
  int node;
  double t;
};

FgnInterval fgn_interval(double lambda) {
  const double u = lambda * (1.0 / kFgnStep);
  int i = static_cast<int>(u);
  if (i > kFgnNodes - 2) i = kFgnNodes - 2;
  return {i, u - static_cast<double>(i)};
}

struct FgnGrid {
  explicit FgnGrid(std::span<const double> freq)
      : lambda(freq.begin(), freq.end()),
        log_lambda(freq.size()),
        weight(freq.size()) {
    bool is_read[kFgnNodes] = {};
    for (std::size_t j = 0; j < lambda.size(); ++j) {
      if (!(lambda[j] > 0.0 && lambda[j] <= M_PI))
        throw std::invalid_argument(
            "whittle: periodogram frequencies must be in (0, pi]");
      log_lambda[j] = std::log(lambda[j]);
      const double half = std::sin(0.5 * lambda[j]);
      weight[j] = 2.0 * half * half;
      const int i = fgn_interval(lambda[j]).node;
      is_read[i] = is_read[i + 1] = true;
    }
    for (int i = 0; i < kFgnNodes; ++i)
      if (is_read[i]) nodes.push_back(i);
  }

  std::vector<double> lambda, log_lambda, weight;
  std::vector<int> nodes;  ///< the nodes the grid reads, ascending
};

class FgnGridEvaluator final : public DensityEvaluator {
 public:
  explicit FgnGridEvaluator(const FgnGrid& grid) : grid_(grid) {}

  void prepare(double hurst) override {
    const double two_h = 2.0 * hurst;
    e_ = -(two_h + 1.0);
    cf2_ = std::sin(M_PI * hurst) * std::tgamma(two_h + 1.0) / M_PI;
    constexpr int kJ = 50;  // matches fgn_spectral_density
    const double edge = 2.0 * M_PI * (kJ + 0.5);
    for (const int i : grid_.nodes) {
      const double lambda = static_cast<double>(i) * kFgnStep;
      double s = 0.0, ds = 0.0;
      for (int j = 1; j <= kJ; ++j) {
        const double a = 2.0 * M_PI * j + lambda;
        const double b = 2.0 * M_PI * j - lambda;
        const double pa = std::pow(a, e_);
        const double pb = std::pow(b, e_);
        s += pa + pb;
        ds += e_ * (pa / a - pb / b);
      }
      s += (std::pow(edge + lambda, -two_h) +
            std::pow(edge - lambda, -two_h)) /
           (2.0 * M_PI * two_h);
      ds += (std::pow(edge - lambda, e_) - std::pow(edge + lambda, e_)) /
            (2.0 * M_PI);
      node_val_[i] = s;
      node_der_[i] = ds;
    }
  }

  double at(std::size_t j) const override {
    const auto [i, t] = fgn_interval(grid_.lambda[j]);
    const double t2 = t * t;
    const double t3 = t2 * t;
    const double series =
        (2.0 * t3 - 3.0 * t2 + 1.0) * node_val_[i] +
        (t3 - 2.0 * t2 + t) * kFgnStep * node_der_[i] +
        (-2.0 * t3 + 3.0 * t2) * node_val_[i + 1] +
        (t3 - t2) * kFgnStep * node_der_[i + 1];
    return cf2_ * grid_.weight[j] *
           (std::exp(e_ * grid_.log_lambda[j]) + series);
  }

 private:
  const FgnGrid& grid_;
  double node_val_[kFgnNodes] = {}, node_der_[kFgnNodes] = {};
  double e_ = -2.0, cf2_ = 0.0;
};

// Profiled Whittle objective Q(theta) and the profiled scale.
struct Objective {
  double q;
  double scale;
};

// Partial sums of one periodogram chunk. Combined in chunk order with a
// fixed grain, so the grouping of floating-point adds depends only on m —
// the objective is bitwise identical at any thread count.
struct ObjectiveSums {
  double ratio = 0.0;
  double logf = 0.0;
};

Objective whittle_objective(const fft::Periodogram& pg,
                            DensityEvaluator& density, double theta) {
  const std::size_t m = pg.frequency.size();
  density.prepare(theta);
  // Even the interpolated density costs an exp() per ordinate, so modest
  // chunks amortize well; 256 keeps plenty of chunks for 4-8 threads at
  // the usual m of a few thousand.
  constexpr std::size_t kGrain = 256;
  const ObjectiveSums sums = par::parallel_transform_reduce(
      std::size_t{0}, m, kGrain, ObjectiveSums{},
      [&](std::size_t j) {
        const double f = density.at(j);
        return ObjectiveSums{pg.ordinate[j] / f, std::log(f)};
      },
      [](ObjectiveSums a, ObjectiveSums b) {
        return ObjectiveSums{a.ratio + b.ratio, a.logf + b.logf};
      });
  const double dm = static_cast<double>(m);
  Objective o;
  o.scale = sums.ratio / dm;
  o.q = std::log(o.scale) + sums.logf / dm;
  return o;
}

// Golden-section minimization of a unimodal function on [lo, hi].
double golden_minimize(const std::function<double(double)>& f, double lo,
                       double hi, double tol) {
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = lo, b = hi;
  double c = b - phi * (b - a);
  double d = a + phi * (b - a);
  double fc = f(c), fd = f(d);
  while (b - a > tol) {
    if (fc < fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - phi * (b - a);
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + phi * (b - a);
      fd = f(d);
    }
  }
  return 0.5 * (a + b);
}

// Shared estimation driver over a single shape parameter theta in
// [theta_min, theta_max]; `to_hurst` converts the fitted theta into the
// reported Hurst units. Objective values are memoized per exact theta:
// the search re-visits the grid winner and the minimizer, and each
// repeat saves a full density pass. `theta_hint`, when present, is a
// nearby previous fit: localization then starts from a 3-point bracket
// check around it instead of the 21-point grid (falling back to the
// grid when the check fails), which is what makes restarting the search
// across aggregation levels cheap.
WhittleResult whittle_estimate(const fft::Periodogram& pg,
                               DensityEvaluator& density, double theta_min,
                               double theta_max, double (*to_hurst)(double),
                               std::optional<double> theta_hint = {}) {
  if (pg.frequency.size() < 8)
    throw std::invalid_argument("whittle: too few periodogram ordinates");

  std::map<double, Objective> memo;
  const auto objective = [&](double t) -> const Objective& {
    const auto it = memo.find(t);
    if (it != memo.end()) return it->second;
    return memo.emplace(t, whittle_objective(pg, density, t)).first->second;
  };

  // Localize the minimum (the objective is smooth and in practice
  // unimodal), then golden-section refinement. A valid hint brackets in
  // 3 objective evaluations; otherwise a coarse grid takes 21.
  double best_t = 0.5 * (theta_min + theta_max);
  const double grid = (theta_max - theta_min) / 20.0;
  bool bracketed = false;
  if (theta_hint && *theta_hint >= theta_min + grid &&
      *theta_hint <= theta_max - grid) {
    const double t0 = *theta_hint;
    const double q_mid = objective(t0).q;
    if (q_mid <= objective(t0 - grid).q && q_mid <= objective(t0 + grid).q) {
      best_t = t0;
      bracketed = true;
    }
  }
  if (!bracketed) {
    double best_q = HUGE_VAL;
    for (double t = theta_min; t <= theta_max; t += grid) {
      const double q = objective(t).q;
      if (q < best_q) {
        best_q = q;
        best_t = t;
      }
    }
  }
  const double lo = std::max(theta_min, best_t - 1.2 * grid);
  const double hi = std::min(theta_max, best_t + 1.2 * grid);
  const double t_hat = golden_minimize(
      [&objective](double t) { return objective(t).q; }, lo, hi, 1e-5);

  const Objective at_min = objective(t_hat);

  WhittleResult r;
  r.hurst = to_hurst(t_hat);
  r.scale = at_min.scale;
  r.objective = at_min.q;

  // Observed-information standard error: the Whittle deviance is
  // W(theta) = m * Q(theta) (up to constants), so Var ~ 2 / W''. The
  // theta -> hurst maps used here have unit slope, so no Jacobian.
  const double dt = 1e-3;
  const double t_lo = std::max(theta_min, t_hat - dt);
  const double t_hi = std::min(theta_max, t_hat + dt);
  const double q_lo = objective(t_lo).q;
  const double q_hi = objective(t_hi).q;
  const double step = 0.5 * (t_hi - t_lo);
  const double second = (q_lo - 2.0 * at_min.q + q_hi) / (step * step);
  const double m = static_cast<double>(pg.frequency.size());
  r.stderr_hurst = second > 0.0 ? std::sqrt(2.0 / (m * second)) : 0.0;
  r.ci_low = r.hurst - 1.96 * r.stderr_hurst;
  r.ci_high = r.hurst + 1.96 * r.stderr_hurst;
  return r;
}

double identity_map(double t) { return t; }
double d_to_hurst(double d) { return d + 0.5; }

}  // namespace

WhittleResult whittle_fgn_from_periodogram(const fft::Periodogram& pg,
                                           const WhittleOptions& options) {
  const FgnGrid grid(pg.frequency);
  FgnGridEvaluator density(grid);
  // theta IS hurst for the fGn family, so the hint needs no conversion.
  return whittle_estimate(pg, density, kFgnThetaMin, kFgnThetaMax,
                          &identity_map, options.hurst_hint);
}

WhittleResult whittle_fgn_direct_from_periodogram(
    const fft::Periodogram& pg) {
  DirectEvaluator density(pg.frequency, &fgn_spectral_density);
  return whittle_estimate(pg, density, kFgnThetaMin, kFgnThetaMax,
                          &identity_map);
}

WhittleResult whittle_fgn(std::span<const double> x) {
  const auto pg = fft::periodogram(x);
  return whittle_fgn_from_periodogram(pg);
}

struct WhittleRefitter::Impl {
  /// One lattice candidate's tables, built on the row's first read.
  struct Row {
    std::once_flag built;
    std::vector<double> inv_f;  ///< 1 / f(lambda_j) per ordinate
    double log_f_sum = 0.0;     ///< sum_j log f(lambda_j)
  };

  FgnGrid grid;                   ///< the grid the tables are built for
  std::vector<double> h;          ///< candidate H lattice
  mutable std::vector<Row> rows;  ///< one per candidate
  mutable std::atomic<std::size_t> rows_built{0};
  double step;

  Impl(std::span<const double> freq, double h_step)
      : grid(freq), step(h_step) {
    const auto count = static_cast<std::size_t>(
                           (kFgnThetaMax - kFgnThetaMin) / h_step) +
                       2;  // lattice covers [theta_min, theta_max] inclusive
    for (std::size_t k = 0; k < count; ++k) {
      h.push_back(std::min(kFgnThetaMin + static_cast<double>(k) * h_step,
                           kFgnThetaMax));
      if (h.back() >= kFgnThetaMax) break;
    }
    rows = std::vector<Row>(h.size());
  }

  /// Candidate k's row. The first reader evaluates it; a concurrent
  /// reader waits for that one evaluation.
  const Row& row(std::size_t k) const {
    Row& r = rows[k];
    std::call_once(r.built, [&] {
      FgnGridEvaluator evaluator(grid);
      evaluator.prepare(h[k]);
      const std::size_t m = grid.lambda.size();
      r.inv_f.resize(m);
      for (std::size_t j = 0; j < m; ++j) {
        const double f = evaluator.at(j);
        r.log_f_sum += std::log(f);
        r.inv_f[j] = 1.0 / f;
      }
      rows_built.fetch_add(1, std::memory_order_relaxed);
    });
    return r;
  }

  /// mean_j log f_j at candidate k: the data-free part of Q_k.
  double mean_log_f(std::size_t k) const {
    return row(k).log_f_sum / static_cast<double>(grid.lambda.size());
  }

  /// Lattice objective at candidate k for periodogram ordinates I:
  /// Q_k = log(mean_j I_j / f_j) + mean_j log f_j. Only the first term
  /// touches the data — m multiply-adds against the cached row.
  double lattice_q(std::size_t k, std::span<const double> ordinate) const {
    const std::size_t m = grid.lambda.size();
    const double* inv_f = row(k).inv_f.data();
    double ratio = 0.0;
    for (std::size_t j = 0; j < m; ++j) ratio += ordinate[j] * inv_f[j];
    return std::log(ratio / static_cast<double>(m)) + mean_log_f(k);
  }
};

WhittleRefitter::WhittleRefitter(std::span<const double> frequency,
                                 double h_step) {
  if (frequency.size() < 8)
    throw std::invalid_argument("WhittleRefitter: too few ordinates");
  if (!(h_step > 0.0 && h_step <= 0.05))
    throw std::invalid_argument("WhittleRefitter: h_step in (0, 0.05]");
  // Impl's FgnGrid rejects frequencies outside (0, pi].
  impl_ = std::make_unique<Impl>(frequency, h_step);
}

WhittleRefitter::~WhittleRefitter() = default;
WhittleRefitter::WhittleRefitter(WhittleRefitter&&) noexcept = default;
WhittleRefitter& WhittleRefitter::operator=(WhittleRefitter&&) noexcept =
    default;

std::size_t WhittleRefitter::candidates() const { return impl_->h.size(); }

std::size_t WhittleRefitter::rows_built() const {
  return impl_->rows_built.load(std::memory_order_relaxed);
}

WhittleResult WhittleRefitter::fit(const fft::Periodogram& pg,
                                   const WhittleOptions& options) const {
  const Impl& im = *impl_;
  if (pg.frequency != im.grid.lambda)
    throw std::invalid_argument(
        "WhittleRefitter: periodogram frequency grid does not match the "
        "grid the tables were built for");
  const std::span<const double> ordinate(pg.ordinate);
  const std::size_t count = im.h.size();

  // Lattice objective, memoized per index for this fit.
  std::vector<double> q(count, HUGE_VAL);
  std::vector<char> have(count, 0);
  const auto q_at = [&](std::size_t k) {
    if (!have[k]) {
      q[k] = im.lattice_q(k, ordinate);
      have[k] = 1;
    }
    return q[k];
  };
  const auto argmin_range = [&](std::size_t lo, std::size_t hi) {  // [lo, hi)
    std::size_t best = lo;
    for (std::size_t k = lo; k < hi; ++k)
      if (q_at(k) < q[best]) best = k;
    return best;
  };
  // A winner on an edge of [lo, hi) that has lattice beyond it: the
  // minimum may lie outside the range.
  const auto on_edge = [count](std::size_t best, std::size_t lo,
                               std::size_t hi) {
    return (best == lo && lo > 0) || (best + 1 == hi && hi < count);
  };
  // Cold scan, coarse to fine: every 8th candidate and the last, then
  // the 8 on either side of the coarse winner, and every candidate only
  // when the fine winner sits on that window's edge.
  const auto cold_scan = [&] {
    constexpr std::size_t kCoarse = 8;
    std::size_t coarse = 0;
    for (std::size_t k = 0; k < count; k += kCoarse)
      if (q_at(k) < q[coarse]) coarse = k;
    if (q_at(count - 1) < q[coarse]) coarse = count - 1;
    const std::size_t lo = coarse > kCoarse ? coarse - kCoarse : 0;
    const std::size_t hi = std::min(count, coarse + kCoarse + 1);
    const std::size_t best = argmin_range(lo, hi);
    return on_edge(best, lo, hi) ? argmin_range(0, count) : best;
  };

  // Scan the lattice for the winning candidate. A hint restricts the
  // scan to its neighborhood first; a winner on the neighborhood edge
  // means the minimum moved out from under the hint, so the cold scan
  // takes over. The hint only changes how much of the lattice gets
  // touched.
  std::size_t best;
  if (options.hurst_hint && *options.hurst_hint > kFgnThetaMin &&
      *options.hurst_hint < kFgnThetaMax) {
    const auto k0 = std::min(
        count - 1,
        static_cast<std::size_t>(
            std::llround((*options.hurst_hint - kFgnThetaMin) / im.step)));
    const std::size_t w = static_cast<std::size_t>(0.05 / im.step) + 1;
    const std::size_t lo = k0 > w ? k0 - w : 0;
    const std::size_t hi = std::min(count, k0 + w + 1);
    best = argmin_range(lo, hi);
    if (on_edge(best, lo, hi)) best = cold_scan();
  } else {
    best = cold_scan();
  }

  // Refine between lattice points — table values only, no density
  // work. A parabola through the winner and its neighbors gives the
  // first vertex; its residual bias is the objective's cubic term
  // (O(step^2), which at realistic m is the largest error in the whole
  // refit), so a cubic through FOUR lattice points — the winner's
  // triple plus one more on the side the vertex leans toward — absorbs
  // Q''' exactly and leaves O(step^3). The cubic's curvature at the
  // minimizer feeds the observed-information stderr, as the
  // golden-section path measures it by finite differences at a
  // comparable step. Near the lattice edges (including the clamped
  // last point, where spacing is irregular) the refit falls back to
  // the general-spacing parabola, then to the raw lattice point.
  //
  // Whichever stencil places t_hat also gives the reported objective
  // there, and the same stencil over the rows' mean log density gives
  // the scale: Q = log(scale) + mean log f.
  double t_hat = im.h[best];
  double second = 0.0;
  double q_hat = q[best];
  double g_hat = im.mean_log_f(best);
  if (count >= 4) {
    // Winner at a lattice edge (H pegged at the fit floor/ceiling):
    // refine through the edge's three-point stencil anyway — a minimum
    // a fraction of a step inside the boundary (the golden-section
    // path finds it; a refit must too) is still captured, and a truly
    // monotone objective clamps the vertex back to the edge.
    const std::size_t c = std::min(std::max<std::size_t>(best, 1), count - 2);
    const double x0 = im.h[c - 1], x1 = im.h[c], x2 = im.h[c + 1];
    const double y0 = q_at(c - 1), y1 = q_at(c), y2 = q_at(c + 1);
    const double a = y0 / ((x0 - x1) * (x0 - x2)) +
                     y1 / ((x1 - x0) * (x1 - x2)) +
                     y2 / ((x2 - x0) * (x2 - x1));
    if (a > 0.0) {
      const double num =
          (x1 - x0) * (x1 - x0) * (y1 - y2) -
          (x1 - x2) * (x1 - x2) * (y1 - y0);
      const double den =
          (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0);
      if (den != 0.0) {
        t_hat = x1 - 0.5 * num / den;
        if (t_hat < x0) t_hat = x0;
        if (t_hat > x2) t_hat = x2;
        // The parabola at t_hat, in Lagrange form.
        const double l0 = (t_hat - x1) * (t_hat - x2) / ((x0 - x1) * (x0 - x2));
        const double l1 = (t_hat - x0) * (t_hat - x2) / ((x1 - x0) * (x1 - x2));
        const double l2 = (t_hat - x0) * (t_hat - x1) / ((x2 - x0) * (x2 - x1));
        q_hat = l0 * y0 + l1 * y1 + l2 * y2;
        g_hat = l0 * im.mean_log_f(c - 1) + l1 * im.mean_log_f(c) +
                l2 * im.mean_log_f(c + 1);
      }
      second = 2.0 * a;
    }

    // Cubic upgrade: base the 4-point stencil at `lo` so the vertex
    // side gets the extra point, clamped so all four points exist even
    // for an edge winner. Requires uniform spacing (true away from the
    // clamped last lattice point, whose stride can be shorter).
    std::size_t lo = t_hat >= x1 ? c - 1 : c >= 2 ? c - 2 : 0;
    lo = std::min(lo, count - 4);
    if (lo + 3 < count) {
      const double step = im.step;
      const bool uniform =
          std::abs((im.h[lo + 3] - im.h[lo]) - 3.0 * step) < 1e-12;
      if (uniform) {
        const double z0 = q_at(lo), z1 = q_at(lo + 1), z2 = q_at(lo + 2),
                     z3 = q_at(lo + 3);
        const double d1 = z1 - z0;
        const double d2 = z2 - 2.0 * z1 + z0;
        const double d3 = z3 - 3.0 * z2 + 3.0 * z1 - z0;
        // dQ/du of the Newton-forward cubic, u = (t - h[lo]) / step:
        //   alpha u^2 + beta u + gamma.
        const double alpha = 0.5 * d3;
        const double beta = d2 - d3;
        const double gamma = d1 - 0.5 * d2 + d3 / 3.0;
        double u = -1.0;
        double curve_u = 0.0;  // d2Q/du2 at the root
        if (std::abs(alpha) > 1e-300) {
          const double disc = beta * beta - 4.0 * alpha * gamma;
          if (disc >= 0.0) {
            const double r = std::sqrt(disc);
            // The root with positive second derivative is the minimum.
            const double u_a = (-beta + r) / (2.0 * alpha);
            const double u_b = (-beta - r) / (2.0 * alpha);
            u = 2.0 * alpha * u_a + beta > 0.0 ? u_a : u_b;
            curve_u = 2.0 * alpha * u + beta;
          }
        } else if (beta > 0.0) {
          u = -gamma / beta;  // cubic degenerated to a parabola
          curve_u = beta;
        }
        // Accept only an interior minimum near the lattice winner;
        // otherwise the parabola result stands.
        const double u_best = (im.h[best] - im.h[lo]) / step;
        if (u >= 0.0 && u <= 3.0 && std::abs(u - u_best) <= 1.5 &&
            curve_u > 0.0) {
          t_hat = im.h[lo] + u * step;
          second = curve_u / (step * step);
          // The cubic at u, in Newton-forward form.
          const auto cubic = [u](double v0, double v1, double v2, double v3) {
            const double e1 = v1 - v0;
            const double e2 = v2 - 2.0 * v1 + v0;
            const double e3 = v3 - 3.0 * v2 + 3.0 * v1 - v0;
            return v0 +
                   u * (e1 + (u - 1.0) * (0.5 * e2 + (u - 2.0) * e3 / 6.0));
          };
          q_hat = cubic(z0, z1, z2, z3);
          g_hat = cubic(im.mean_log_f(lo), im.mean_log_f(lo + 1),
                        im.mean_log_f(lo + 2), im.mean_log_f(lo + 3));
        }
      }
    }
  }
  // A stencil through non-finite objectives (an all-zero or an infinite
  // periodogram) falls back to the winner's row.
  if (!std::isfinite(q_hat) || !std::isfinite(g_hat)) {
    q_hat = q[best];
    g_hat = im.mean_log_f(best);
  }

  WhittleResult r;
  r.hurst = t_hat;
  r.scale = std::exp(q_hat - g_hat);
  r.objective = q_hat;
  const double m = static_cast<double>(im.grid.lambda.size());
  r.stderr_hurst = second > 0.0 ? std::sqrt(2.0 / (m * second)) : 0.0;
  r.ci_low = r.hurst - 1.96 * r.stderr_hurst;
  r.ci_high = r.hurst + 1.96 * r.stderr_hurst;
  return r;
}

WhittleResult whittle_farima_from_periodogram(const fft::Periodogram& pg) {
  // fARIMA's density is a single pow() — evaluating it directly is
  // already cheaper than any grid.
  DirectEvaluator density(pg.frequency, &farima_spectral_density);
  return whittle_estimate(pg, density, -0.45, 0.49, &d_to_hurst);
}

WhittleResult whittle_farima(std::span<const double> x) {
  const auto pg = fft::periodogram(x);
  return whittle_farima_from_periodogram(pg);
}

}  // namespace wan::stats
