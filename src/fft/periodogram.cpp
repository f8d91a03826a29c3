#include "src/fft/periodogram.hpp"

#include <cmath>
#include <stdexcept>

#include "src/fft/fft.hpp"
#include "src/stats/descriptive.hpp"

namespace wan::fft {

std::vector<double> fourier_frequencies(std::size_t n) {
  std::vector<double> frequency(n > 0 ? (n - 1) / 2 : 0);
  for (std::size_t j = 1; j <= frequency.size(); ++j)
    frequency[j - 1] =
        2.0 * M_PI * static_cast<double>(j) / static_cast<double>(n);
  return frequency;
}

Periodogram periodogram(std::span<const double> x) {
  if (x.size() < 4)
    throw std::invalid_argument("periodogram: series too short");

  // Force an even transform size by dropping the last sample of an
  // odd-length series. One sample is statistically immaterial for the
  // ordinates, and it keeps rfft on the planned half-size real path
  // (the odd fallback widens to a full complex transform and, for
  // non-power-of-two n, falls through to Bluestein).
  if (x.size() % 2 != 0) x = x.first(x.size() - 1);
  const std::size_t n = x.size();

  // Single-pass Welford mean (header-only MomentAccumulator); the mean
  // is then removed while rfft packs the series into its half-size
  // complex workspace, so no separate centered copy is ever allocated.
  stats::MomentAccumulator acc;
  for (double v : x) acc.push(v);

  const auto spec = rfft(x, acc.mean());
  Periodogram out;
  out.frequency = fourier_frequencies(n);
  out.ordinate.resize(out.frequency.size());
  const double scale = 1.0 / (2.0 * M_PI * static_cast<double>(n));
  for (std::size_t j = 1; j <= out.ordinate.size(); ++j)
    out.ordinate[j - 1] = std::norm(spec[j]) * scale;
  return out;
}

SpectrumCascade::SpectrumCascade(std::span<const double> x) {
  if (x.size() < 4)
    throw std::invalid_argument("SpectrumCascade: series too short");
  // Replicates periodogram()'s preprocessing bit for bit — same trim,
  // same Welford mean, same rfft — so current() at factor 1 returns the
  // identical ordinates.
  if (x.size() % 2 != 0) x = x.first(x.size() - 1);
  n_ = x.size();
  stats::MomentAccumulator acc;
  for (double v : x) acc.push(v);
  half_ = rfft(x, acc.mean());
}

void SpectrumCascade::halve() {
  if (!can_halve())
    throw std::logic_error(
        "SpectrumCascade::halve: current length not a multiple of 4");
  const std::size_t half_n = n_ / 2;  // length after halving
  std::vector<cd> next(half_n / 2 + 1);
  const double step = 2.0 * M_PI / static_cast<double>(n_);
  for (std::size_t k = 0; k <= half_n / 2; ++k) {
    const cd a = half_[k];
    // X_{k + n/2}: inside the stored half-spectrum only at k = 0; the
    // rest come from the real-input conjugate mirror X_{n-j} = conj(X_j).
    const cd b = k == 0 ? half_[half_n] : std::conj(half_[half_n - k]);
    const double ang = step * static_cast<double>(k);
    const cd w_inv(std::cos(ang), std::sin(ang));  // w^{-k}
    next[k] = 0.25 * ((a + b) + w_inv * (a - b));
  }
  half_ = std::move(next);
  n_ = half_n;
  factor_ *= 2;
}

Periodogram SpectrumCascade::current() const {
  Periodogram out;
  out.frequency = fourier_frequencies(n_);
  out.ordinate.resize(out.frequency.size());
  const double scale = 1.0 / (2.0 * M_PI * static_cast<double>(n_));
  for (std::size_t j = 1; j <= out.ordinate.size(); ++j)
    out.ordinate[j - 1] = std::norm(half_[j]) * scale;
  return out;
}

AveragedPeriodogram::AveragedPeriodogram(std::size_t segment_length)
    : segment_length_(segment_length) {
  if (segment_length < 4 || segment_length % 2 != 0)
    throw std::invalid_argument(
        "AveragedPeriodogram: segment_length must be even and >= 4");
  frequency_ = fourier_frequencies(segment_length);
  ordinate_sum_.assign(frequency_.size(), 0.0);
}

void AveragedPeriodogram::push(std::span<const double> x) {
  if (x.size() != segment_length_)
    throw std::invalid_argument("AveragedPeriodogram::push: segment size");
  const Periodogram p = periodogram(x);
  for (std::size_t i = 0; i < ordinate_sum_.size(); ++i)
    ordinate_sum_[i] += p.ordinate[i];
  ++segments_;
}

Periodogram AveragedPeriodogram::finish() const {
  if (segments_ == 0)
    throw std::logic_error("AveragedPeriodogram::finish: no segments");
  Periodogram out;
  out.frequency = frequency_;
  out.ordinate.resize(ordinate_sum_.size());
  const double inv = 1.0 / static_cast<double>(segments_);
  for (std::size_t i = 0; i < ordinate_sum_.size(); ++i)
    out.ordinate[i] = ordinate_sum_[i] * inv;
  return out;
}

}  // namespace wan::fft
