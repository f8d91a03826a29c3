#include "src/stats/counting.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace wan::stats {

std::vector<double> bin_counts(std::span<const double> times, double t0,
                               double t1, double bin) {
  BinCountsAccumulator acc(t0, t1, bin);
  acc.add(times);
  return acc.take();
}

std::size_t bin_grid_size(double t0, double t1, double bin) {
  const double n = std::ceil((t1 - t0) / bin);
  if (n >= 0.0 && n < 0x1p64) return static_cast<std::size_t>(n);  // 2^64
  char msg[128];
  std::snprintf(msg, sizeof(msg), "bin_counts: bin %g s over a %g s span "
                "gives %g bins, not a count below 2^64", bin, t1 - t0, n);
  throw std::invalid_argument(msg);
}

BinCountsAccumulator::BinCountsAccumulator(double t0, double t1, double bin)
    : t0_(t0), t1_(t1), bin_(bin) {
  if (!(bin > 0.0)) throw std::invalid_argument("bin_counts: bin must be > 0");
  if (!(t1 > t0)) throw std::invalid_argument("bin_counts: t1 must be > t0");
  counts_.assign(bin_grid_size(t0, t1, bin), 0.0);
}

void BinCountsAccumulator::add(double t) {
  if (!(t >= t0_ && t < t1_)) return;  // NaN is out of range too
  auto idx = static_cast<std::size_t>((t - t0_) / bin_);
  if (idx >= counts_.size()) idx = counts_.size() - 1;  // float edge at t1
  counts_[idx] += 1.0;
}

void BinCountsAccumulator::add(std::span<const double> times) {
  // Guard the int32 index scratch; a series this long would need a bin
  // vector beyond 2G entries anyway.
  if (counts_.size() >= static_cast<std::size_t>(INT32_MAX)) {
    for (double t : times) add(t);
    return;
  }
  const double t0 = t0_;
  const double t1 = t1_;
  const double bin = bin_;
  const double last = static_cast<double>(counts_.size() - 1);
  idx_scratch_.resize(times.size());
  std::int32_t* idx = idx_scratch_.data();
  // Phase 1: pure per-element arithmetic over the time column — the
  // same range predicate and division as add(t), so the computed bin of
  // every in-range element is identical (clamping the quotient before
  // truncation equals clamping the index after it, since the quotient
  // of an in-range element is nonnegative and below bins()). All
  // selects, no branches: compare / divide / min / convert / blend,
  // which is what lets the loop vectorize.
  for (std::size_t i = 0; i < times.size(); ++i) {
    const double t = times[i];
    // Non-short-circuit | so the predicate is two compares and an or,
    // not a branch (short-circuit || blocks vectorization). Negated
    // compares, so a NaN time is out of range as in add(t).
    const bool out = !(t >= t0) | !(t < t1);
    double q = (t - t0) / bin;
    q = q > last ? last : q;  // float edge at t1
    q = q > 0.0 ? q : 0.0;    // keep the conversion defined on out lanes
    const auto b = static_cast<std::int32_t>(q);
    idx[i] = out ? -1 : b;
  }
  // Phase 2: scatter. Inherently serial per element, but now a plain
  // increment loop with no floating-point work left in it.
  double* counts = counts_.data();
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (idx[i] >= 0) counts[idx[i]] += 1.0;
  }
}

void BinCountsAccumulator::merge(const BinCountsAccumulator& other) {
  if (t0_ != other.t0_ || t1_ != other.t1_ || bin_ != other.bin_ ||
      counts_.size() != other.counts_.size())
    throw std::invalid_argument("BinCountsAccumulator::merge: grid mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
}

std::vector<double> aggregate_mean(std::span<const double> x, std::size_t m) {
  if (m == 0) throw std::invalid_argument("aggregate_mean: m must be >= 1");
  std::vector<double> out;
  out.reserve(x.size() / m);
  for (std::size_t i = 0; i + m <= x.size(); i += m) {
    double s = 0.0;
    for (std::size_t j = 0; j < m; ++j) s += x[i + j];
    out.push_back(s / static_cast<double>(m));
  }
  return out;
}

namespace {

// One output of aggregate_mean(., 2), in its order of operations.
double pair_mean(double a, double b) {
  double s = 0.0;
  s += a;
  s += b;
  return s / 2.0;
}

}  // namespace

std::vector<double> aggregate_halvings(std::span<const double> x,
                                       std::size_t max_len) {
  unsigned k = 0;
  while ((x.size() >> k) > max_len) ++k;
  if (k == 0) return {x.begin(), x.end()};
  std::vector<double> out(x.size() >> k);
  if (out.empty()) return out;
  const std::size_t half = std::size_t{1} << (k - 1);
  std::vector<double> scratch(half);
  for (std::size_t j = 0; j < out.size(); ++j) {
    const double* in = x.data() + j * 2 * half;
    for (std::size_t i = 0; i < half; ++i)
      scratch[i] = pair_mean(in[2 * i], in[2 * i + 1]);
    // Each later level halves the scratch in place: slot i reads slots
    // 2i and 2i+1, which no earlier slot of this level has overwritten.
    for (std::size_t len = half / 2; len > 0; len /= 2)
      for (std::size_t i = 0; i < len; ++i)
        scratch[i] = pair_mean(scratch[2 * i], scratch[2 * i + 1]);
    out[j] = scratch[0];
  }
  return out;
}

std::vector<double> aggregate_sum(std::span<const double> x, std::size_t m) {
  if (m == 0) throw std::invalid_argument("aggregate_sum: m must be >= 1");
  std::vector<double> out;
  out.reserve(x.size() / m);
  for (std::size_t i = 0; i + m <= x.size(); i += m) {
    double s = 0.0;
    for (std::size_t j = 0; j < m; ++j) s += x[i + j];
    out.push_back(s);
  }
  return out;
}

double BurstLull::mean_burst_bins() const {
  if (burst_lengths.empty()) return 0.0;
  double s = 0.0;
  for (auto v : burst_lengths) s += static_cast<double>(v);
  return s / static_cast<double>(burst_lengths.size());
}

double BurstLull::mean_lull_bins() const {
  if (lull_lengths.empty()) return 0.0;
  double s = 0.0;
  for (auto v : lull_lengths) s += static_cast<double>(v);
  return s / static_cast<double>(lull_lengths.size());
}

BurstLull burst_lull_structure(std::span<const double> counts) {
  BurstLullAccumulator acc;
  for (double c : counts) acc.push(c);
  return acc.finish();
}

void BurstLullAccumulator::push(double count) {
  const bool occ = count > 0.0;
  if (run_ == 0) {
    occupied_ = occ;
    run_ = 1;
  } else if (occ == occupied_) {
    ++run_;
  } else {
    runs_.push_back({run_, occupied_});
    occupied_ = occ;
    run_ = 1;
  }
}

BurstLull BurstLullAccumulator::finish() const {
  BurstLull out;
  for (const Run& r : runs_)
    (r.occupied ? out.burst_lengths : out.lull_lengths).push_back(r.length);
  if (run_ > 0)
    (occupied_ ? out.burst_lengths : out.lull_lengths).push_back(run_);
  return out;
}

void BurstLullAccumulator::merge(const BurstLullAccumulator& other) {
  if (other.run_ == 0) return;  // other saw nothing
  if (run_ == 0) {              // we saw nothing
    *this = other;
    return;
  }
  // Splice at the boundary: our open run meets other's first run. If
  // occupancy matches they are one run of the concatenated series.
  Run first = other.runs_.empty() ? Run{other.run_, other.occupied_}
                                  : other.runs_.front();
  if (first.occupied == occupied_) {
    first.length += run_;
  } else {
    runs_.push_back({run_, occupied_});
  }
  if (other.runs_.empty()) {
    // first IS other's open run; it stays open here.
    run_ = first.length;
    occupied_ = first.occupied;
    return;
  }
  runs_.push_back(first);
  runs_.insert(runs_.end(), other.runs_.begin() + 1, other.runs_.end());
  run_ = other.run_;
  occupied_ = other.occupied_;
}

}  // namespace wan::stats
