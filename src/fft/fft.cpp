#include "src/fft/fft.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/fft/plan.hpp"

namespace wan::fft {

bool is_power_of_two(std::size_t n) noexcept {
  return n >= 1 && (n & (n - 1)) == 0;
}

std::size_t next_power_of_two(std::size_t n) {
  constexpr std::size_t kMaxPower =
      (std::numeric_limits<std::size_t>::max() >> 1) + 1;  // 2^63 on 64-bit
  if (n > kMaxPower)
    throw std::overflow_error(
        "next_power_of_two: no power of two >= n fits in size_t");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_pow2(std::span<cd> data, bool inverse) {
  const std::size_t n = data.size();
  if (!is_power_of_two(n))
    throw std::invalid_argument("fft_pow2: size must be a power of two");
  if (n == 1) return;
  const auto plan = plan_for(n);
  if (inverse) {
    plan->inverse(data);
  } else {
    plan->forward(data);
  }
}

std::vector<cd> fft(std::span<const cd> data) {
  if (data.empty()) return {};
  if (!is_power_of_two(data.size()))
    return bluestein_plan_for(data.size(), false)->transform(data);
  std::vector<cd> out(data.begin(), data.end());
  fft_pow2(out, false);
  return out;
}

std::vector<cd> ifft(std::span<const cd> data) {
  if (data.empty()) return {};
  std::vector<cd> out;
  if (is_power_of_two(data.size())) {
    out.assign(data.begin(), data.end());
    fft_pow2(out, true);
  } else {
    out = bluestein_plan_for(data.size(), true)->transform(data);
  }
  const double inv_n = 1.0 / static_cast<double>(out.size());
  for (cd& v : out) v *= inv_n;
  return out;
}

std::vector<cd> rfft(std::span<const double> data, double subtract) {
  const std::size_t n = data.size();
  if (n == 0) return {};
  if (n == 1) return {cd(data[0] - subtract, 0.0)};
  if (n % 2 == 0) return rfft_plan_for(n)->forward(data, subtract);

  // Odd length: widen (centering in place) and truncate the complex
  // spectrum to the nonnegative frequencies.
  std::vector<cd> cx(n);
  for (std::size_t i = 0; i < n; ++i) cx[i] = cd(data[i] - subtract, 0.0);
  auto full = fft(cx);
  full.resize(n / 2 + 1);
  return full;
}

std::vector<double> irfft(std::span<const cd> half_spectrum, std::size_t n) {
  if (n == 0) return {};
  if (half_spectrum.size() != n / 2 + 1)
    throw std::invalid_argument(
        "irfft: half spectrum must hold floor(n/2) + 1 entries");
  if (n == 1) return {half_spectrum[0].real()};
  if (n % 2 == 0) return rfft_plan_for(n)->inverse(half_spectrum);

  // Odd length: rebuild the full Hermitian spectrum and invert.
  std::vector<cd> full(n);
  full[0] = cd(half_spectrum[0].real(), 0.0);
  for (std::size_t k = 1; k <= n / 2; ++k) {
    full[k] = half_spectrum[k];
    full[n - k] = std::conj(half_spectrum[k]);
  }
  const auto z = ifft(full);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = z[i].real();
  return out;
}

std::vector<cd> fft_real(std::span<const double> data) {
  const std::size_t n = data.size();
  if (n == 0) return {};
  const auto half = rfft(data);
  std::vector<cd> out(n);
  for (std::size_t k = 0; k < half.size(); ++k) out[k] = half[k];
  // Conjugate mirror for the strictly negative frequencies.
  for (std::size_t k = 1; k <= n - half.size(); ++k)
    out[n - k] = std::conj(half[k]);
  return out;
}

std::vector<double> circular_autocorrelation(std::span<const double> x) {
  const std::size_t n = x.size();
  if (n == 0) return {};
  const auto spec = rfft(x);
  std::vector<cd> power(spec.size());
  for (std::size_t k = 0; k < spec.size(); ++k)
    power[k] = cd(std::norm(spec[k]), 0.0);
  return irfft(power, n);
}

}  // namespace wan::fft
