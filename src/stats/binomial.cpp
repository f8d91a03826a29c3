#include "src/stats/binomial.hpp"

#include <cmath>
#include <stdexcept>

namespace wan::stats {

namespace {

// log Gamma(x) for x > 0. lgamma() also stores the sign of Gamma(x) in
// the global signgam, a data race when windowed engines test Poisson
// intervals on several threads at once; lgamma_r returns the same value
// and writes the sign to the caller's variable instead.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double log_binomial_coefficient(std::uint64_t n, std::uint64_t k) {
  if (k > n) return -INFINITY;
  return log_gamma(static_cast<double>(n) + 1.0) -
         log_gamma(static_cast<double>(k) + 1.0) -
         log_gamma(static_cast<double>(n - k) + 1.0);
}

double binomial_pmf(std::uint64_t n, std::uint64_t k, double p) {
  if (k > n) return 0.0;
  if (p <= 0.0) return k == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return k == n ? 1.0 : 0.0;
  const double lp = log_binomial_coefficient(n, k) +
                    static_cast<double>(k) * std::log(p) +
                    static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(lp);
}

double binomial_cdf(std::uint64_t n, std::uint64_t k, double p) {
  if (k >= n) return 1.0;
  // Sum the smaller tail for accuracy; with n in the hundreds at most in
  // our use, the direct sum is fine.
  double s = 0.0;
  for (std::uint64_t i = 0; i <= k; ++i) s += binomial_pmf(n, i, p);
  return s > 1.0 ? 1.0 : s;
}

double binomial_sf(std::uint64_t n, std::uint64_t k, double p) {
  if (k == 0) return 1.0;
  return 1.0 - binomial_cdf(n, k - 1, p);
}

bool binomial_consistent(std::uint64_t n_tested, std::uint64_t n_passed,
                         double p_pass, double alpha) {
  if (n_tested == 0)
    throw std::invalid_argument("binomial_consistent: no intervals tested");
  return binomial_cdf(n_tested, n_passed, p_pass) >= alpha;
}

int sign_bias(std::uint64_t n_tested, std::uint64_t n_positive,
              double alpha) {
  if (n_tested == 0) return 0;
  const double tail = alpha / 2.0;
  // Improbably many positives?
  if (binomial_sf(n_tested, n_positive, 0.5) < tail) return +1;
  // Improbably many negatives (i.e. few positives)?
  if (binomial_cdf(n_tested, n_positive, 0.5) < tail) return -1;
  return 0;
}

}  // namespace wan::stats
