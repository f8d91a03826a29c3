// Reconstruction of the Tcplib empirical TELNET packet-interarrival
// distribution (Danzig & Jamin [11,12]) from the facts Paxson & Floyd
// publish about it in Section IV and Appendix C:
//
//   * support from ~1 ms out to minutes (Fig. 3 spans log10 seconds
//     from -3 to ~2);
//   * fewer than 2% of interarrivals are below 8 ms;
//   * more than 15% of interarrivals exceed 1 s;
//   * the main body fits a Pareto with shape beta = 0.9, the upper 3%
//     tail a Pareto with beta ~ 0.95;
//   * the arithmetic mean is near 1.1 s (the paper's matched exponential
//     uses mean 1.1 s "to give roughly the same number of packets").
//
// We splice: a log-linear CDF through the sub-300 ms region (where
// Fig. 3 is nearly straight on the log axis and network dynamics
// dominate), a Pareto(beta_body) segment covering the body up to the
// 97th percentile, and a Pareto(beta_tail) upper-3% tail truncated at
// max_interarrival so moments exist.
#pragma once

#include <string>
#include <vector>

#include "src/dist/distribution.hpp"

namespace wan::dist {

/// Tunable parameters of the reconstruction (ablation surface).
struct TcplibParams {
  double min_interarrival = 0.001;  ///< 1 ms floor (paper plots from 1 ms)
  double p_below_8ms = 0.015;       ///< "under 2% were less than 8 ms apart"
  double p_below_100ms = 0.30;      ///< read off Fig. 3's log-linear rise
  double body_start = 0.3;          ///< where the Pareto body takes over
  double p_below_body_start = 0.55; ///< calibrated so P[X > 1 s] ~ 0.15
  double beta_body = 0.9;           ///< paper: body Pareto shape 0.9
  double beta_tail = 0.95;          ///< paper: upper-3% Pareto shape 0.95
  double tail_mass = 0.03;          ///< "upper 3% tail"
  double max_interarrival = 360.0;  ///< truncation; keeps mean ~1.2 s

  /// The parameterization used throughout the paper reproduction.
  static TcplibParams paper() { return TcplibParams{}; }
};

/// The spliced Tcplib TELNET interarrival law. Closed-form CDF/quantile;
/// exact mean/variance by per-segment integration.
class TcplibTelnetInterarrival final : public Distribution {
 public:
  explicit TcplibTelnetInterarrival(TcplibParams params = TcplibParams::paper());

  double cdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override;
  double variance() const override;
  std::string name() const override;

  const TcplibParams& params() const { return params_; }

  /// Value below which lies exactly `1 - params.tail_mass` of the mass
  /// (start of the beta_tail Pareto segment).
  double tail_start() const;

 private:
  // One contiguous piece of the spliced CDF.
  struct Segment {
    double lo, hi;    // support
    double p_lo, p_hi;  // CDF values at lo/hi
    bool pareto;        // log-uniform if false
    double beta;        // Pareto shape (ignored if !pareto)
    // Constants of the segment's CDF, quantile and moments, computed
    // once at construction:
    double log_ratio = 0.0;     // log(hi/lo)
    double norm = 0.0;          // Pareto: 1 - (lo/hi)^beta
    double neg_inv_beta = 0.0;  // Pareto: -1/beta
  };

  double segment_cdf(const Segment& s, double x) const;
  double segment_quantile(const Segment& s, double p) const;
  double segment_mean(const Segment& s) const;
  double segment_moment2(const Segment& s) const;

  TcplibParams params_;
  std::vector<Segment> segments_;
};

}  // namespace wan::dist
