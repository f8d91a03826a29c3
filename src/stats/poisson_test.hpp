// Appendix A: the methodology for testing whether an arrival process is
// a (nonhomogeneous) Poisson process with rate fixed over intervals of
// length I.
//
// The trace is divided into N = T/I intervals. Each interval with enough
// arrivals is tested twice:
//   (1) exponentially distributed interarrivals — Anderson-Darling A^2
//       with the mean estimated from the interval's data;
//   (2) independent interarrivals — |lag-1 autocorrelation| must not
//       exceed 1.96/sqrt(n).
// If arrivals are truly Poisson, ~95% of intervals pass each test; a
// binomial test on the pass counts decides whether the trace is
// statistically consistent with Poisson, and a sign test on the lag-1
// correlations flags consistent positive/negative correlation (the "+"
// and "-" annotations of Fig. 2).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace wan::stats {

/// Configuration of the Appendix A tester.
struct PoissonTestConfig {
  double interval_length = 3600.0;  ///< I: 1 h (Fig. 2 top) or 600 s (bottom)
  double significance = 0.05;       ///< per-interval test level
  /// Minimum number of *interarrivals* in an interval for it to be
  /// testable. Very sparse intervals carry no power; Appendix A's A^2
  /// small-sample modification covers moderate n.
  std::size_t min_interarrivals = 5;
  double aggregate_alpha = 0.05;    ///< level of the binomial consistency test
};

/// Per-interval outcome (exposed for diagnostics and plotting).
struct IntervalOutcome {
  double start = 0.0;
  std::size_t n_interarrivals = 0;
  bool tested = false;
  bool pass_exponential = false;
  bool pass_independence = false;
  double a2_modified = 0.0;
  double lag1 = 0.0;
};

/// Whole-trace verdict — one letter of Fig. 2.
struct PoissonTestResult {
  std::size_t n_intervals = 0;        ///< intervals with enough data
  std::size_t n_pass_exponential = 0;
  std::size_t n_pass_independence = 0;
  std::size_t n_positive_lag1 = 0;

  double frac_pass_exponential = 0.0; ///< x-coordinate in Fig. 2
  double frac_pass_independence = 0.0;///< y-coordinate in Fig. 2

  bool consistent_exponential = false;
  bool consistent_independence = false;
  /// Statistically indistinguishable from Poisson (both consistent):
  /// drawn in large bold in Fig. 2.
  bool poisson = false;
  /// +1 / -1 if consecutive interarrivals are consistently positively /
  /// negatively correlated (the +/- annotation), else 0.
  int lag1_sign_bias = 0;

  std::vector<IntervalOutcome> intervals;
};

/// Runs the Appendix A methodology on arrival times (seconds, sorted or
/// not: sorted input is read in place, other input is copied and
/// sorted). `t_begin`/`t_end` bound the trace; if t_end <= t_begin they
/// default to the observed extremes.
PoissonTestResult test_poisson_arrivals(std::span<const double> arrival_times,
                                        const PoissonTestConfig& config = {},
                                        double t_begin = 0.0,
                                        double t_end = 0.0);

/// Tests one interval in isolation: `sorted_times` are the arrivals
/// inside [start, start + interval_length), already in time order. The
/// outcome is a pure function of those arrivals and the config — no
/// state bridges intervals — which is what lets a sliding-window tester
/// keep a ring of outcomes and retest nothing. test_poisson_arrivals
/// calls this per slot, so the two paths share every bit of arithmetic.
IntervalOutcome test_poisson_interval(std::span<const double> sorted_times,
                                      double start,
                                      const PoissonTestConfig& config = {});

/// Folds per-interval outcomes into the whole-trace verdict (pass
/// counts, binomial consistency, lag-1 sign bias). Pure aggregation
/// over the outcomes in order — the second shared half of
/// test_poisson_arrivals, and the finish step of the windowed tester.
PoissonTestResult aggregate_poisson_intervals(
    std::vector<IntervalOutcome> intervals,
    const PoissonTestConfig& config = {});

/// One-line rendering, e.g. "exp 93% indep 96% [POISSON] (+)".
std::string to_string(const PoissonTestResult& r);

}  // namespace wan::stats
