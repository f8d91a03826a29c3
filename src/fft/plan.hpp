// Planned FFT execution: an FftPlan caches everything about a transform
// size that is pure trigonometry/bookkeeping — the bit-reversal
// permutation and the per-stage twiddle tables — so repeated transforms
// of the same length (Whittle likelihood evaluations, per-block fGn
// synthesis, Bluestein's inner FFTs) stop recomputing cos/sin. Plans are
// shared through small thread-safe LRU caches.
//
// Arbitrary lengths get a BluesteinPlan per (length, direction): the
// chirp and the forward transform of its conjugate kernel are built
// once, so a transform runs two power-of-two FFTs instead of three and
// calls no cos/sin.
//
// Real-input transforms get their own RfftPlan: N reals are packed into
// N/2 complex points, transformed with the (cached) half-size complex
// or Bluestein plan, and unpacked with a cached e^{-2*pi*i*k/N} table —
// half the work and memory of widening the series to complex.
//
// Determinism contract: butterfly stages may run in parallel on the
// src/par pool, but every butterfly writes a disjoint pair of slots and
// performs arithmetic that depends only on the plan tables, so the
// output is bit-identical at any thread count (and identical to the
// serial loop nest the plan replaced).
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace wan::fft {

using cd = std::complex<double>;

/// A reusable radix-2 plan for one power-of-two transform size.
class FftPlan {
 public:
  /// Builds the bit-reversal permutation and per-stage twiddle tables
  /// for size n. Throws std::invalid_argument unless n is a power of
  /// two (n >= 1).
  explicit FftPlan(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// In-place unnormalized DFT of exactly size() points.
  ///
  /// Each butterfly multiplies on the real and imaginary parts,
  /// vr = yr*wr - yi*wi and vi = yr*wi + yi*wr, then adds and subtracts:
  /// the products and sums std::complex's operator* forms for finite
  /// values, with contraction off (root CMakeLists.txt), so every finite
  /// transform keeps the bits of the std::complex butterfly. A product
  /// that comes out NaN in both parts differs: std::complex hands it to
  /// __muldc3, whose C Annex G recovery can turn it into an infinity,
  /// and this butterfly leaves it NaN.
  void forward(std::span<cd> data) const { transform(data, false); }

  /// In-place unnormalized inverse DFT (divide by size() yourself for
  /// the unitary convention).
  void inverse(std::span<cd> data) const { transform(data, true); }

  /// Twiddle table of the stage with butterfly span `len` (a power of
  /// two in [2, size()]): entries w_len^k = exp(-2*pi*i*k/len) for
  /// k in [0, len/2). Exposed for the rfft unpack path and for tests.
  std::span<const cd> stage_twiddles(std::size_t len) const;

 private:
  void transform(std::span<cd> data, bool inverse) const;

  std::size_t n_;
  std::vector<std::uint32_t> bitrev_;  ///< bit-reversed index of each i
  /// Stage tables concatenated smallest stage first; the table for
  /// butterfly span `len` starts at offset len/2 - 1 and holds len/2
  /// entries (total n - 1).
  std::vector<cd> stages_;
};

/// Fetches (or builds and caches) the plan for power-of-two size n.
/// Thread-safe; the cache keeps the most recently used sizes and evicts
/// least-recently-used plans beyond its capacity. Callers keep their
/// shared_ptr, so eviction never invalidates a plan in use.
std::shared_ptr<const FftPlan> plan_for(std::size_t n);

/// Bluestein's chirp-z transform for one length n >= 1 in one
/// direction: the DFT as a convolution with the chirp
/// w[k] = exp(sign*i*pi*k^2/n) (sign -1 forward, +1 inverse), evaluated
/// at the power-of-two size m = next_power_of_two(2n + 1). The plan
/// holds the chirp, the forward transform of its conjugate kernel and
/// the m-point radix-2 plan, so a transform runs two m-point FFTs.
class BluesteinPlan {
 public:
  /// Throws std::invalid_argument when n is 0.
  BluesteinPlan(std::size_t n, bool inverse);

  std::size_t size() const noexcept { return n_; }

  /// The unnormalized DFT (inverse DFT for an inverse plan) of exactly
  /// size() points.
  std::vector<cd> transform(std::span<const cd> data) const;

 private:
  std::size_t n_;
  std::shared_ptr<const FftPlan> inner_;  ///< m points
  std::vector<cd> chirp_;                 ///< w[k], k < n
  std::vector<cd> kernel_;  ///< forward FFT of conj(w) wrapped to m points
};

/// Fetches (or builds and caches) the Bluestein plan for length n in one
/// direction. Thread-safe, with plan_for's eviction rule.
std::shared_ptr<const BluesteinPlan> bluestein_plan_for(std::size_t n,
                                                        bool inverse);

/// A plan for real-input transforms of even length n: the cached
/// half-size plans (radix-2 when n/2 is a power of two, else Bluestein
/// in both directions) plus the pack/unpack twiddle table
/// exp(-2*pi*i*k/n).
class RfftPlan {
 public:
  /// Throws std::invalid_argument unless n is even and >= 2.
  explicit RfftPlan(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// Spectrum of the real series (x - subtract) at k = 0..n/2
  /// (n/2 + 1 entries; the remaining half is the conjugate mirror).
  /// `subtract` lets callers center in place while packing, with no
  /// separate centered copy (the periodogram path).
  std::vector<cd> forward(std::span<const double> x,
                          double subtract = 0.0) const;

  /// Inverse of forward(): reconstructs the n real points from the
  /// half spectrum (n/2 + 1 entries), normalized by 1/n.
  std::vector<double> inverse(std::span<const cd> half_spectrum) const;

 private:
  std::size_t n_;  ///< real length (even)
  std::size_t h_;  ///< n / 2, the complex transform size
  std::shared_ptr<const FftPlan> half_plan_;  ///< null when h_ is not 2^k
  /// Bluestein plans of the half size, null when h_ is 2^k.
  std::shared_ptr<const BluesteinPlan> half_forward_, half_inverse_;
  std::vector<cd> unpack_;  ///< exp(-2*pi*i*k/n), k = 0..h_
};

/// Fetches (or builds and caches) the real-transform plan for even n.
std::shared_ptr<const RfftPlan> rfft_plan_for(std::size_t n);

/// Cache observability (tests and diagnostics).
struct PlanCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;  ///< currently cached plans
};

PlanCacheStats plan_cache_stats();        ///< complex-plan cache
PlanCacheStats bluestein_plan_cache_stats();  ///< Bluestein-plan cache
PlanCacheStats rfft_plan_cache_stats();   ///< real-plan cache

/// Drops all cached plans and zeroes the counters (tests only; safe at
/// any time because callers hold shared_ptrs).
void reset_plan_caches();

}  // namespace wan::fft
