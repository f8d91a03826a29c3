#include "src/stats/window.hpp"

#include <cmath>
#include <cstdio>

namespace wan::stats {

std::uint64_t grid_index(double t, double t0, double width,
                         double tolerance) {
  // The same floor((t - t0) / width) BinCountsAccumulator::add computes,
  // converted only where a uint64_t holds it (NaN fails both compares).
  const double q = (t - t0) / width + tolerance;
  if (q >= 0.0 && q < 0x1p64) return static_cast<std::uint64_t>(q);  // 2^64
  char msg[192];
  std::snprintf(msg, sizeof(msg),
                "grid index: time %.17g lies %g cells of %g s from %.17g, "
                "not a count in [0, 2^64)",
                t, q, width, t0);
  throw std::invalid_argument(msg);
}

WindowedBinCounts::WindowedBinCounts(double t0, double bin,
                                     std::size_t window_bins)
    : t0_(t0), bin_(bin) {
  if (!(bin > 0.0))
    throw std::invalid_argument("WindowedBinCounts: bin must be > 0");
  if (window_bins == 0)
    throw std::invalid_argument("WindowedBinCounts: window_bins must be >= 1");
  ring_.assign(window_bins, 0.0);
}

void WindowedBinCounts::complete_bins_through(std::uint64_t bin_index) {
  // Close bins [completed_, bin_index): the open bin first (it may hold
  // events), then empty bins up to the new open bin. The ring write and
  // completed_ advance happen BEFORE the observer runs, so an observer
  // that reads back window_counts()/completed_bins() (the analyzer
  // emitting a report at a slide boundary) sees a window that includes
  // the bin it was just notified about.
  while (completed_ < bin_index) {
    const double closed = open_;
    ring_[static_cast<std::size_t>(completed_ % ring_.size())] = closed;
    ++completed_;
    open_ = 0.0;
    if (observer_) observer_(closed);
  }
}

void WindowedBinCounts::add(double t) {
  if (!std::isfinite(t))  // no grid index; a NaN passes the t0 check
    throw std::invalid_argument("WindowedBinCounts::add: non-finite time");
  if (t < t0_)
    throw std::invalid_argument("WindowedBinCounts::add: time before t0");
  const std::uint64_t idx = grid_index(t, t0_, bin_);
  if (idx < completed_)
    throw std::invalid_argument(
        "WindowedBinCounts::add: time precedes a completed bin");
  if (idx > completed_) complete_bins_through(idx);
  open_ += 1.0;
  ++events_;
}

void WindowedBinCounts::advance_to(double t) {
  if (t < t0_) return;
  const std::uint64_t idx = grid_index(t, t0_, bin_);
  if (idx > completed_) complete_bins_through(idx);
}

void WindowedBinCounts::window_counts(std::vector<double>& out) const {
  out.clear();
  const std::uint64_t n64 =
      completed_ < ring_.size() ? completed_ : ring_.size();
  const auto n = static_cast<std::size_t>(n64);
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k)
    out.push_back(
        ring_[static_cast<std::size_t>((completed_ - n64 + k) % ring_.size())]);
}

WindowedPoissonTest::WindowedPoissonTest(const PoissonTestConfig& config,
                                         double t0,
                                         std::size_t window_intervals)
    : config_(config), t0_(t0) {
  if (!(config.interval_length > 0.0))
    throw std::invalid_argument(
        "WindowedPoissonTest: interval_length must be > 0");
  if (window_intervals == 0)
    throw std::invalid_argument(
        "WindowedPoissonTest: window_intervals must be >= 1");
  ring_.assign(window_intervals, IntervalOutcome{});
}

void WindowedPoissonTest::complete_through(std::uint64_t interval_index) {
  while (completed_ < interval_index) {
    const double s0 =
        t0_ + static_cast<double>(completed_) * config_.interval_length;
    ring_[static_cast<std::size_t>(completed_ % ring_.size())] =
        test_poisson_interval(open_times_, s0, config_);
    open_times_.clear();
    ++completed_;
  }
}

void WindowedPoissonTest::push(double t) {
  if (!std::isfinite(t))  // no grid index; a NaN passes the t0 check
    throw std::invalid_argument("WindowedPoissonTest::push: non-finite time");
  if (t < t0_)
    throw std::invalid_argument("WindowedPoissonTest::push: time before t0");
  const std::uint64_t idx = grid_index(t, t0_, config_.interval_length);
  if (idx < completed_)
    throw std::invalid_argument(
        "WindowedPoissonTest::push: time precedes a completed interval");
  if (idx > completed_) complete_through(idx);
  open_times_.push_back(t);
}

void WindowedPoissonTest::advance_to(double t) {
  if (t < t0_) return;
  const std::uint64_t idx = grid_index(t, t0_, config_.interval_length);
  if (idx > completed_) complete_through(idx);
}

PoissonTestResult WindowedPoissonTest::result() const {
  const std::uint64_t n64 =
      completed_ < ring_.size() ? completed_ : ring_.size();
  const auto n = static_cast<std::size_t>(n64);
  std::vector<IntervalOutcome> outcomes;
  outcomes.reserve(n);
  for (std::size_t k = 0; k < n; ++k)
    outcomes.push_back(
        ring_[static_cast<std::size_t>((completed_ - n64 + k) % ring_.size())]);
  return aggregate_poisson_intervals(std::move(outcomes), config_);
}

}  // namespace wan::stats
