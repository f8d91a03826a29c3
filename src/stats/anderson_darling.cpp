#include "src/stats/anderson_darling.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/stats/descriptive.hpp"

namespace wan::stats {

double anderson_darling_from_sorted_probs(std::span<const double> p_sorted) {
  const std::size_t n = p_sorted.size();
  if (n < 2)
    throw std::invalid_argument("anderson_darling: need >= 2 observations");
  // Clamp away from {0,1} so the logs stay finite; ties at the boundary
  // otherwise produce -inf.
  const double eps = 1e-12;
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = std::clamp(p_sorted[i], eps, 1.0 - eps);
    const double v = std::clamp(p_sorted[n - 1 - i], eps, 1.0 - eps);
    s += (2.0 * static_cast<double>(i) + 1.0) *
         (std::log(u) + std::log1p(-v));
  }
  const double dn = static_cast<double>(n);
  return -dn - s / dn;
}

namespace {

// The bits of 1.0. Read as unsigned, a double's bits are at most these
// exactly when it lies in [+0, 1]: -0, negatives and NaNs carry the
// sign bit or an all-ones exponent.
constexpr std::uint64_t kOneBits = 0x3FF0000000000000;

}  // namespace

std::span<const double> sort_probabilities(std::span<double> p,
                                           std::vector<double>& scratch) {
  const std::size_t n = p.size();
  std::uint64_t top = 0;
  for (const double v : p)
    top = std::max(top, std::bit_cast<std::uint64_t>(v));
  if (n < 2 || top > kOneBits ||
      n > std::numeric_limits<std::uint32_t>::max()) {
    std::sort(p.begin(), p.end());
    return p;
  }
  // n / 2 buckets, two values each on average: a bucket per value
  // doubles the offsets array, which raised the monitor's peak RSS.
  const std::size_t buckets = n / 2;
  const double scale = static_cast<double>(buckets);
  const auto last = static_cast<std::uint32_t>(buckets - 1);
  // v in [0, 1], so v * buckets lies in [0, n / 2], inside uint32_t.
  const auto bucket = [scale, last](double v) {
    return std::min(static_cast<std::uint32_t>(v * scale), last);
  };
  // Counts per bucket, then each bucket's next free slot.
  std::vector<std::uint32_t> next(buckets, 0);
  for (const double v : p) ++next[bucket(v)];
  std::uint32_t start = 0;
  for (std::uint32_t& slot : next) {
    const std::uint32_t count = slot;
    slot = start;
    start += count;
  }
  scratch.resize(n);
  double* const out = scratch.data();
  for (const double v : p) out[next[bucket(v)]++] = v;
  // next[b] now ends bucket b, which starts where bucket b - 1 ends.
  std::uint32_t lo = 0;
  for (const std::uint32_t hi : next) {
    std::sort(out + lo, out + hi);
    lo = hi;
  }
  return scratch;
}

double anderson_darling_uniform(std::span<const double> z) {
  std::vector<double> p(z.begin(), z.end());
  std::vector<double> scratch;
  return anderson_darling_from_sorted_probs(sort_probabilities(p, scratch));
}

namespace {

struct CritRow {
  double alpha;
  double value;
};

// D'Agostino & Stephens (1986), Table 4.14: upper-tail percentage points
// of the modified A^2 = A^2 (1 + 0.6/n) for the exponential null with
// estimated scale (origin known).
constexpr CritRow kExpCrit[] = {
    {0.25, 0.736}, {0.15, 0.916}, {0.10, 1.062},
    {0.05, 1.321}, {0.025, 1.591}, {0.01, 1.959},
};

// D'Agostino & Stephens (1986), Table 4.2: A^2 percentage points for a
// fully specified null (case 0); valid for n >= 5 without modification.
constexpr CritRow kCase0Crit[] = {
    {0.15, 1.610}, {0.10, 1.933}, {0.05, 2.492},
    {0.025, 3.070}, {0.01, 3.857},
};

double lookup(const CritRow* rows, std::size_t n, double alpha,
              const char* what) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(rows[i].alpha - alpha) < 1e-9) return rows[i].value;
  }
  throw std::invalid_argument(std::string("unsupported significance level for ") +
                              what);
}

}  // namespace

double ad_critical_exponential(double alpha) {
  return lookup(kExpCrit, std::size(kExpCrit), alpha, "exponential A^2");
}

double ad_critical_case0(double alpha) {
  return lookup(kCase0Crit, std::size(kCase0Crit), alpha, "case-0 A^2");
}

AdResult ad_test_exponential(std::span<const double> x, double alpha) {
  std::vector<double> p(x.begin(), x.end());
  return ad_test_exponential_in_place(p, alpha);
}

AdResult ad_test_exponential_in_place(std::span<double> x, double alpha) {
  const std::size_t n = x.size();
  if (n < 2)
    throw std::invalid_argument("ad_test_exponential: need >= 2 observations");
  const double m = mean(x);
  if (!(m > 0.0))
    throw std::invalid_argument("ad_test_exponential: nonpositive mean");

  for (double& v : x) v = -std::expm1(-v / m);
  std::vector<double> scratch;

  AdResult r;
  r.a2 = anderson_darling_from_sorted_probs(sort_probabilities(x, scratch));
  r.a2_modified = r.a2 * (1.0 + 0.6 / static_cast<double>(n));
  r.critical = ad_critical_exponential(alpha);
  r.pass = r.a2_modified <= r.critical;
  return r;
}

AdResult ad_test_uniform(std::span<const double> z, double alpha) {
  AdResult r;
  r.a2 = anderson_darling_uniform(z);
  r.a2_modified = r.a2;  // case 0 needs no modification for n >= 5
  r.critical = ad_critical_case0(alpha);
  r.pass = r.a2_modified <= r.critical;
  return r;
}

}  // namespace wan::stats
