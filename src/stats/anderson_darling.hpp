// Anderson-Darling (A^2) goodness-of-fit test — the exponentiality test
// at the heart of Appendix A. Stephens (in D'Agostino & Stephens,
// "Goodness-of-Fit Techniques", 1986) recommends A^2 over
// Kolmogorov-Smirnov and chi-square; it weights the tails heavily, which
// is exactly where heavy-tailed interarrivals betray themselves.
//
// Two cases are provided:
//  * fully-specified null CDF ("case 0"),
//  * exponential with mean estimated from the data — the situation in
//    Appendix A, which changes the significance points (D'Agostino &
//    Stephens Table 4.14) and requires the small-sample modification
//    A^2 * (1 + 0.6/n).
#pragma once

#include <span>
#include <vector>

namespace wan::stats {

/// Raw A^2 statistic for sorted-or-not samples against a fully specified
/// continuous CDF (callable double -> double).
template <typename Cdf>
double anderson_darling_statistic(std::span<const double> x, Cdf&& cdf);

/// A^2 statistic against the uniform [0,1] law (z values must already be
/// probability-transformed, need not be sorted).
double anderson_darling_uniform(std::span<const double> z);

/// Result of an A^2 test.
struct AdResult {
  double a2 = 0.0;          ///< raw statistic
  double a2_modified = 0.0; ///< small-sample modified statistic
  bool pass = false;        ///< null not rejected at the chosen level
  double critical = 0.0;    ///< the critical value used
};

/// Tests whether x is exponential with *unknown* mean (estimated from the
/// sample), at significance `alpha` in {0.25, 0.15, 0.10, 0.05, 0.025,
/// 0.01}. This is the Appendix A exponentiality test.
AdResult ad_test_exponential(std::span<const double> x, double alpha = 0.05);

/// ad_test_exponential on a buffer the caller hands over, with the same
/// bits: x is overwritten with the probabilities 1 - exp(-x/mean), in no
/// set order, so the test allocates only their sorted copy and n / 2
/// bucket offsets (see sort_probabilities).
AdResult ad_test_exponential_in_place(std::span<double> x,
                                      double alpha = 0.05);

/// Tests z (probability-transformed data) against uniformity with a fully
/// specified null ("case 0"), at significance alpha in {0.15, 0.10, 0.05,
/// 0.025, 0.01}.
AdResult ad_test_uniform(std::span<const double> z, double alpha = 0.05);

/// Critical value lookup (exposed for tests).
double ad_critical_exponential(double alpha);
double ad_critical_case0(double alpha);

/// Sorts probabilities ascending, in the order std::sort gives, bit for
/// bit (exposed for tests). Values in [+0, 1] go to m = n / 2 buckets by
/// floor(p m), clamped to m - 1: a counting scatter into `scratch`, then
/// std::sort on each bucket where it lies, so uniform input (A^2 under
/// its null) sorts in linear time. The bucket is a nondecreasing
/// function of p, and a sorted array of non-NaN doubles is unique but
/// for the order of +0 and -0, so the result equals std::sort's. An
/// array of fewer than 2 or of 2^32 or more values, or with any -0, NaN
/// or value outside [0, 1], is std::sort-ed in p instead. Returns the
/// sorted values, which live in p or in scratch.
std::span<const double> sort_probabilities(std::span<double> p,
                                           std::vector<double>& scratch);

// ---- implementation of the template ----

double anderson_darling_from_sorted_probs(std::span<const double> p_sorted);

template <typename Cdf>
double anderson_darling_statistic(std::span<const double> x, Cdf&& cdf) {
  std::vector<double> p(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) p[i] = cdf(x[i]);
  std::vector<double> scratch;
  return anderson_darling_from_sorted_probs(sort_probabilities(p, scratch));
}

}  // namespace wan::stats
