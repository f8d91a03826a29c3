#include "src/dist/tcplib.hpp"

#include <cmath>
#include <stdexcept>

namespace wan::dist {

TcplibTelnetInterarrival::TcplibTelnetInterarrival(TcplibParams params)
    : params_(params) {
  const TcplibParams& q = params_;
  if (!(q.min_interarrival > 0.0 && q.min_interarrival < 0.008 &&
        0.008 < 0.1 && 0.1 < q.body_start &&
        q.body_start < q.max_interarrival))
    throw std::invalid_argument("TcplibParams: inconsistent support knots");
  if (!(0.0 < q.p_below_8ms && q.p_below_8ms < q.p_below_100ms &&
        q.p_below_100ms < q.p_below_body_start &&
        q.p_below_body_start < 1.0 - q.tail_mass))
    throw std::invalid_argument("TcplibParams: inconsistent probabilities");

  // Low region: log-linear CDF through (min,0) (8ms, p8) (100ms, p100)
  // (body_start, p_body).
  segments_.push_back({q.min_interarrival, 0.008, 0.0, q.p_below_8ms,
                       /*pareto=*/false, 0.0});
  segments_.push_back({0.008, 0.1, q.p_below_8ms, q.p_below_100ms,
                       /*pareto=*/false, 0.0});
  segments_.push_back({0.1, q.body_start, q.p_below_100ms,
                       q.p_below_body_start, /*pareto=*/false, 0.0});

  // Body: Pareto(body_start, beta_body) out to the (1 - tail_mass)
  // quantile of the *unconditioned* Pareto continuation, i.e. x97 solving
  //   (1 - p_body) * (body_start / x97)^beta = tail_mass.
  const double body_mass = 1.0 - q.p_below_body_start - q.tail_mass;
  const double x97 =
      q.body_start *
      std::pow((1.0 - q.p_below_body_start) / q.tail_mass, 1.0 / q.beta_body);
  if (!(x97 < q.max_interarrival))
    throw std::invalid_argument("TcplibParams: max_interarrival below tail start");
  segments_.push_back({q.body_start, x97, q.p_below_body_start,
                       q.p_below_body_start + body_mass, /*pareto=*/true,
                       q.beta_body});

  // Upper tail: Pareto(x97, beta_tail), truncated at max_interarrival.
  segments_.push_back({x97, q.max_interarrival, 1.0 - q.tail_mass, 1.0,
                       /*pareto=*/true, q.beta_tail});

  for (Segment& s : segments_) {
    s.log_ratio = std::log(s.hi / s.lo);
    if (s.pareto) {
      s.norm = 1.0 - std::pow(s.lo / s.hi, s.beta);
      s.neg_inv_beta = -1.0 / s.beta;
    }
  }
}

double TcplibTelnetInterarrival::tail_start() const {
  return segments_.back().lo;
}

double TcplibTelnetInterarrival::segment_cdf(const Segment& s,
                                             double x) const {
  double f;  // conditional CDF within the segment, in [0,1]
  if (s.pareto) {
    f = (1.0 - std::pow(s.lo / x, s.beta)) / s.norm;
  } else {
    f = std::log(x / s.lo) / s.log_ratio;
  }
  return s.p_lo + f * (s.p_hi - s.p_lo);
}

double TcplibTelnetInterarrival::segment_quantile(const Segment& s,
                                                  double p) const {
  const double f = (p - s.p_lo) / (s.p_hi - s.p_lo);
  if (s.pareto) return s.lo * std::pow(1.0 - f * s.norm, s.neg_inv_beta);
  return s.lo * std::exp(f * s.log_ratio);
}

double TcplibTelnetInterarrival::cdf(double x) const {
  if (x <= segments_.front().lo) return 0.0;
  if (x >= segments_.back().hi) return 1.0;
  for (const Segment& s : segments_) {
    if (x <= s.hi) return segment_cdf(s, x);
  }
  return 1.0;
}

double TcplibTelnetInterarrival::quantile(double p) const {
  if (p <= 0.0) return segments_.front().lo;
  if (p >= 1.0) return segments_.back().hi;
  for (const Segment& s : segments_) {
    if (p <= s.p_hi) return segment_quantile(s, p);
  }
  return segments_.back().hi;
}

double TcplibTelnetInterarrival::segment_mean(const Segment& s) const {
  if (!s.pareto) {
    return (s.hi - s.lo) / s.log_ratio;
  }
  const double c = s.beta * std::pow(s.lo, s.beta) / s.norm;
  const double e = 1.0 - s.beta;
  if (std::abs(e) < 1e-12) return c * s.log_ratio;
  return c * (std::pow(s.hi, e) - std::pow(s.lo, e)) / e;
}

double TcplibTelnetInterarrival::segment_moment2(const Segment& s) const {
  if (!s.pareto) {
    return (s.hi * s.hi - s.lo * s.lo) / (2.0 * s.log_ratio);
  }
  const double c = s.beta * std::pow(s.lo, s.beta) / s.norm;
  const double e = 2.0 - s.beta;
  if (std::abs(e) < 1e-12) return c * s.log_ratio;
  return c * (std::pow(s.hi, e) - std::pow(s.lo, e)) / e;
}

double TcplibTelnetInterarrival::mean() const {
  double m = 0.0;
  for (const Segment& s : segments_) m += (s.p_hi - s.p_lo) * segment_mean(s);
  return m;
}

double TcplibTelnetInterarrival::variance() const {
  double m2 = 0.0;
  for (const Segment& s : segments_)
    m2 += (s.p_hi - s.p_lo) * segment_moment2(s);
  const double m = mean();
  return m2 - m * m;
}

std::string TcplibTelnetInterarrival::name() const {
  return "TcplibTelnetInterarrival(beta_body=" +
         std::to_string(params_.beta_body) +
         ",beta_tail=" + std::to_string(params_.beta_tail) + ")";
}

}  // namespace wan::dist
