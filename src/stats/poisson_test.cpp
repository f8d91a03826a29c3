#include "src/stats/poisson_test.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/stats/anderson_darling.hpp"
#include "src/stats/autocorr.hpp"
#include "src/stats/binomial.hpp"
#include "src/stats/descriptive.hpp"

namespace wan::stats {

IntervalOutcome test_poisson_interval(std::span<const double> sorted_times,
                                      double start,
                                      const PoissonTestConfig& config) {
  IntervalOutcome oc;
  oc.start = start;
  if (sorted_times.size() > 1) {
    std::vector<double> gaps;
    gaps.reserve(sorted_times.size() - 1);
    for (std::size_t i = 1; i < sorted_times.size(); ++i)
      gaps.push_back(sorted_times[i] - sorted_times[i - 1]);
    const std::size_t n = gaps.size();
    oc.n_interarrivals = n;
    if (n >= config.min_interarrivals && mean(gaps) > 0.0) {
      oc.tested = true;
      // Lag-1 first: the A^2 test then takes the gaps over and leaves
      // them holding its probabilities.
      oc.lag1 = lag1_autocorrelation(gaps);
      // Center on the i.i.d. small-sample bias E[r(1)] = -1/n so both
      // the magnitude and the sign test are calibrated.
      const double centered = oc.lag1 - lag1_bias(n);
      oc.pass_independence = std::abs(centered) <= lag1_threshold(n);
      const AdResult ad =
          ad_test_exponential_in_place(gaps, config.significance);
      oc.a2_modified = ad.a2_modified;
      oc.pass_exponential = ad.pass;
    }
  }
  return oc;
}

PoissonTestResult aggregate_poisson_intervals(
    std::vector<IntervalOutcome> intervals, const PoissonTestConfig& config) {
  PoissonTestResult result;
  for (const IntervalOutcome& oc : intervals) {
    if (!oc.tested) continue;
    ++result.n_intervals;
    if (oc.pass_exponential) ++result.n_pass_exponential;
    if (oc.pass_independence) ++result.n_pass_independence;
    if (oc.lag1 - lag1_bias(oc.n_interarrivals) > 0.0)
      ++result.n_positive_lag1;
  }
  result.intervals = std::move(intervals);
  if (result.n_intervals == 0) return result;

  const double n = static_cast<double>(result.n_intervals);
  result.frac_pass_exponential =
      static_cast<double>(result.n_pass_exponential) / n;
  result.frac_pass_independence =
      static_cast<double>(result.n_pass_independence) / n;
  const double p_pass = 1.0 - config.significance;
  result.consistent_exponential = binomial_consistent(
      result.n_intervals, result.n_pass_exponential, p_pass,
      config.aggregate_alpha);
  result.consistent_independence = binomial_consistent(
      result.n_intervals, result.n_pass_independence, p_pass,
      config.aggregate_alpha);
  result.poisson =
      result.consistent_exponential && result.consistent_independence;
  result.lag1_sign_bias =
      sign_bias(result.n_intervals, result.n_positive_lag1,
                config.aggregate_alpha);
  return result;
}

PoissonTestResult test_poisson_arrivals(std::span<const double> arrival_times,
                                        const PoissonTestConfig& config,
                                        double t_begin, double t_end) {
  if (!(config.interval_length > 0.0))
    throw std::invalid_argument("PoissonTestConfig: interval_length must be > 0");
  std::span<const double> times = arrival_times;
  std::vector<double> sorted;
  if (!std::is_sorted(times.begin(), times.end())) {
    sorted.assign(times.begin(), times.end());
    std::sort(sorted.begin(), sorted.end());
    times = sorted;
  }

  if (times.empty()) return PoissonTestResult{};

  if (!(t_end > t_begin)) {
    t_begin = times.front();
    t_end = times.back() + 1e-9;
  }

  const double I = config.interval_length;
  const auto n_slots =
      static_cast<std::size_t>(std::ceil((t_end - t_begin) / I));

  std::vector<IntervalOutcome> intervals;
  intervals.reserve(n_slots);
  std::size_t lo = 0;
  for (std::size_t slot = 0; slot < n_slots; ++slot) {
    const double s0 = t_begin + static_cast<double>(slot) * I;
    const double s1 = s0 + I;
    // Advance [lo, hi) to the arrivals inside [s0, s1).
    while (lo < times.size() && times[lo] < s0) ++lo;
    std::size_t hi = lo;
    while (hi < times.size() && times[hi] < s1) ++hi;
    intervals.push_back(
        test_poisson_interval(times.subspan(lo, hi - lo), s0, config));
    lo = hi;
  }
  return aggregate_poisson_intervals(std::move(intervals), config);
}

std::string to_string(const PoissonTestResult& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "exp %3.0f%% indep %3.0f%% (%zu ivls)%s%s",
                100.0 * r.frac_pass_exponential,
                100.0 * r.frac_pass_independence, r.n_intervals,
                r.poisson ? " [POISSON]" : "",
                r.lag1_sign_bias > 0 ? " (+)"
                                     : (r.lag1_sign_bias < 0 ? " (-)" : ""));
  return buf;
}

}  // namespace wan::stats
