// Fast Fourier transform substrate, implemented from scratch:
//  - iterative radix-2 Cooley-Tukey for power-of-two lengths, executed
//    through cached FftPlans (src/fft/plan.hpp) whose butterfly stages
//    can run in parallel with bit-identical results,
//  - Bluestein's chirp-z algorithm for arbitrary lengths, through cached
//    BluesteinPlans (chirp and kernel spectrum built once per length and
//    direction, two power-of-two inner transforms per call),
//  - real-input transforms (rfft/irfft) that pack N reals into N/2
//    complex points, halving the work and memory of the complex path,
// plus helpers for real input and circular (auto)correlation. Used by the
// periodogram / Whittle estimator and by Davies-Harte fGn generation.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace wan::fft {

using cd = std::complex<double>;

/// True if n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n) noexcept;

/// Smallest power of two >= n. Throws std::overflow_error when no such
/// power fits in std::size_t (n > 2^63 on 64-bit targets) instead of
/// the previous behavior of looping forever on shift overflow.
std::size_t next_power_of_two(std::size_t n);

/// In-place radix-2 FFT. data.size() must be a power of two.
/// inverse=true computes the unnormalized inverse transform; divide by N
/// yourself if you need the unitary convention (or use ifft()).
void fft_pow2(std::span<cd> data, bool inverse);

/// FFT of arbitrary length (Bluestein for non powers of two).
std::vector<cd> fft(std::span<const cd> data);

/// Inverse FFT of arbitrary length, normalized by 1/N.
std::vector<cd> ifft(std::span<const cd> data);

/// FFT of real input at the nonnegative frequencies only: returns
/// floor(n/2) + 1 entries X[k], k = 0..floor(n/2); the rest of the
/// spectrum is the conjugate mirror X[n-k] = conj(X[k]). Even lengths
/// take the packed half-size transform (two reals per complex point);
/// odd lengths fall back to the complex transform internally.
/// `subtract` is removed from every sample during packing, so centered
/// spectra (periodogram) need no separate centered copy.
std::vector<cd> rfft(std::span<const double> data, double subtract = 0.0);

/// Inverse of rfft(): reconstructs the n real points from the
/// floor(n/2) + 1 nonnegative-frequency entries. The imaginary parts of
/// half_spectrum[0] (and, for even n, half_spectrum[n/2]) are ignored,
/// as Hermitian symmetry forces them to zero.
std::vector<double> irfft(std::span<const cd> half_spectrum, std::size_t n);

/// FFT of real input; returns the full complex spectrum of length n
/// (computed via rfft plus the conjugate mirror for even n).
std::vector<cd> fft_real(std::span<const double> data);

/// Circular autocorrelation sums via FFT:
///   r[k] = sum_i x[i] * x[(i+k) mod n].
/// Callers that want linear (non-circular) sums should zero-pad first.
/// Runs entirely on the half-spectrum (rfft -> |X|^2 -> irfft).
std::vector<double> circular_autocorrelation(std::span<const double> x);

}  // namespace wan::fft
