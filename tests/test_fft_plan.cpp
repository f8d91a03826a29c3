// Tests for the planned spectral engine (src/fft/plan.hpp): rfft/irfft
// correctness against the complex transform and a naive O(n^2) DFT,
// plan-cache reuse (same plan object handed back, LRU eviction),
// next_power_of_two overflow behavior, bit-identical parallel butterfly
// execution, golden pins of every transform's output bits, and the fGn
// circulant-eigenvalue cache.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/fft/fft.hpp"
#include "src/fft/periodogram.hpp"
#include "src/fft/plan.hpp"
#include "src/par/parallel.hpp"
#include "src/rng/rng.hpp"
#include "src/selfsim/fgn.hpp"

namespace wan::fft {
namespace {

std::vector<double> random_reals(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

std::vector<cd> widen(const std::vector<double>& x, double subtract = 0.0) {
  std::vector<cd> z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = cd(x[i] - subtract, 0.0);
  return z;
}

std::vector<cd> naive_dft_real(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<cd> out(n, cd(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * M_PI * static_cast<double>(k) *
                         static_cast<double>(t) / static_cast<double>(n);
      out[k] += x[t] * cd(std::cos(ang), std::sin(ang));
    }
  }
  return out;
}

// Restores the ambient thread count (mirrors ParTest in test_par_pool).
class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = par::thread_count(); }
  void TearDown() override { par::set_thread_count(saved_); }

 private:
  std::size_t saved_ = 1;
};

using PlanCacheTest = PlanTest;
using PlanDeterminismTest = PlanTest;

// --- rfft / irfft vs the complex transform -------------------------------

class RfftMatchesFft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RfftMatchesFft, HalfSpectrumMatchesComplexFftOnReals) {
  const std::size_t n = GetParam();
  const auto x = random_reals(n, 7000 + n);
  const auto half = rfft(x);
  const auto full = fft(widen(x));
  ASSERT_EQ(half.size(), n / 2 + 1);
  for (std::size_t k = 0; k < half.size(); ++k) {
    EXPECT_NEAR(half[k].real(), full[k].real(), 1e-8) << "k=" << k;
    EXPECT_NEAR(half[k].imag(), full[k].imag(), 1e-8) << "k=" << k;
  }
}

TEST_P(RfftMatchesFft, IrfftInvertsRfft) {
  const std::size_t n = GetParam();
  const auto x = random_reals(n, 9000 + n);
  const auto back = irfft(rfft(x), n);
  ASSERT_EQ(back.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(back[i], x[i], 1e-9) << "i=" << i;
}

// Powers of two (packed radix-2 path), even non-powers-of-two (packed
// Bluestein half), and odd lengths (complex fallback).
INSTANTIATE_TEST_SUITE_P(Sizes, RfftMatchesFft,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 1024, 6, 12,
                                           30, 100, 1000, 3, 5, 17, 101));

TEST(Rfft, SubtractCentersDuringPacking) {
  const auto x = random_reals(512, 11);
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(x.size());

  const auto centered_half = rfft(x, mean);
  const auto reference = fft(widen(x, mean));
  ASSERT_EQ(centered_half.size(), x.size() / 2 + 1);
  for (std::size_t k = 0; k < centered_half.size(); ++k) {
    EXPECT_NEAR(centered_half[k].real(), reference[k].real(), 1e-8);
    EXPECT_NEAR(centered_half[k].imag(), reference[k].imag(), 1e-8);
  }
  // DC bin of the centered spectrum is the (scaled) mean residual: ~0.
  EXPECT_NEAR(centered_half[0].real(), 0.0, 1e-9);
}

TEST(Rfft, NonPowerOfTwoMatchesNaiveDft) {
  for (std::size_t n : {6u, 10u, 14u, 22u, 54u}) {
    const auto x = random_reals(n, 100 + n);
    const auto half = rfft(x);
    const auto slow = naive_dft_real(x);
    ASSERT_EQ(half.size(), n / 2 + 1);
    for (std::size_t k = 0; k < half.size(); ++k) {
      EXPECT_NEAR(half[k].real(), slow[k].real(), 1e-8)
          << "n=" << n << " k=" << k;
      EXPECT_NEAR(half[k].imag(), slow[k].imag(), 1e-8)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Rfft, FftRealMirrorsTheHalfSpectrum) {
  for (std::size_t n : {8u, 9u, 12u, 100u}) {
    const auto x = random_reals(n, 300 + n);
    const auto full = fft_real(x);
    const auto ref = fft(widen(x));
    ASSERT_EQ(full.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(full[k].real(), ref[k].real(), 1e-8) << "k=" << k;
      EXPECT_NEAR(full[k].imag(), ref[k].imag(), 1e-8) << "k=" << k;
    }
  }
}

TEST(Rfft, IrfftRejectsMismatchedHalfSize) {
  std::vector<cd> half(5, cd(0.0, 0.0));
  EXPECT_THROW(irfft(half, 16), std::invalid_argument);  // needs 9
  EXPECT_NO_THROW(irfft(half, 8));
}

// --- next_power_of_two overflow ------------------------------------------

TEST(NextPowerOfTwo, ThrowsInsteadOfLoopingOnOverflow) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  constexpr std::size_t kTop = (kMax >> 1) + 1;  // 2^63 on 64-bit
  EXPECT_EQ(next_power_of_two(kTop), kTop);
  EXPECT_EQ(next_power_of_two(kTop - 5), kTop);
  EXPECT_THROW(next_power_of_two(kTop + 1), std::overflow_error);
  EXPECT_THROW(next_power_of_two(kMax), std::overflow_error);
}

// --- plan cache ----------------------------------------------------------

TEST_F(PlanCacheTest, RepeatedSizesReuseTheSamePlan) {
  reset_plan_caches();
  const auto p1 = plan_for(1024);
  const auto p2 = plan_for(1024);
  EXPECT_EQ(p1.get(), p2.get());  // same cached object, not a rebuild

  const auto stats = plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(PlanCacheTest, RfftPlansAreCachedAndShareTheHalfPlan) {
  reset_plan_caches();
  const auto r1 = rfft_plan_for(2048);
  const auto r2 = rfft_plan_for(2048);
  EXPECT_EQ(r1.get(), r2.get());
  const auto rs = rfft_plan_cache_stats();
  EXPECT_EQ(rs.misses, 1u);
  EXPECT_GE(rs.hits, 1u);

  // Building the rfft plan populated the complex cache with the
  // half-size plan; asking for it directly is a hit, not a rebuild.
  const auto before = plan_cache_stats();
  const auto half = plan_for(1024);
  const auto after = plan_cache_stats();
  EXPECT_EQ(half->size(), 1024u);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits + 1);
}

TEST_F(PlanCacheTest, EvictsLeastRecentlyUsedBeyondCapacity) {
  reset_plan_caches();
  // Fill well past the cache capacity; entries must stay bounded and the
  // oldest size must rebuild (a fresh miss) when asked for again.
  for (std::size_t k = 0; k < 20; ++k) plan_for(std::size_t{1} << k);
  const auto stats = plan_cache_stats();
  EXPECT_LE(stats.entries, 16u);
  EXPECT_GT(stats.entries, 0u);

  const auto before = plan_cache_stats();
  plan_for(1);  // size 2^0 was evicted long ago
  const auto after = plan_cache_stats();
  EXPECT_EQ(after.misses, before.misses + 1);
}

TEST_F(PlanCacheTest, EvictionDoesNotInvalidatePlansInUse) {
  reset_plan_caches();
  const auto held = plan_for(64);
  for (std::size_t k = 0; k < 20; ++k) plan_for(std::size_t{1} << k);
  // `held` was evicted from the cache but our shared_ptr keeps it alive
  // and usable.
  std::vector<cd> data(64, cd(1.0, 0.0));
  EXPECT_NO_THROW(held->forward(data));
  EXPECT_NEAR(data[0].real(), 64.0, 1e-12);
}

TEST_F(PlanCacheTest, StageTwiddlesMatchDirectTrig) {
  const auto plan = plan_for(256);
  for (std::size_t len = 2; len <= 256; len <<= 1) {
    const auto tw = plan->stage_twiddles(len);
    ASSERT_EQ(tw.size(), len / 2);
    for (std::size_t k = 0; k < tw.size(); ++k) {
      const double a = -2.0 * M_PI * static_cast<double>(k) /
                       static_cast<double>(len);
      EXPECT_EQ(tw[k].real(), std::cos(a));
      EXPECT_EQ(tw[k].imag(), std::sin(a));
    }
  }
  EXPECT_THROW(plan->stage_twiddles(512), std::invalid_argument);
  EXPECT_THROW(plan->stage_twiddles(3), std::invalid_argument);
}

// --- determinism: parallel butterflies and packed stages -----------------

TEST_F(PlanDeterminismTest, PlannedFftBitIdenticalAcrossThreadCounts) {
  // 2^17 complex points = 2^16 butterflies per stage: enough to split
  // into several parallel chunks (grain 2^14).
  const std::size_t n = std::size_t{1} << 17;
  rng::Rng rng(77);
  std::vector<cd> base(n);
  for (auto& v : base) v = cd(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));

  const auto plan = plan_for(n);
  auto run_at = [&](std::size_t threads, bool inverse) {
    par::set_thread_count(threads);
    std::vector<cd> data = base;
    if (inverse)
      plan->inverse(data);
    else
      plan->forward(data);
    return data;
  };

  const auto f1 = run_at(1, false);
  const auto f4 = run_at(4, false);
  const auto i1 = run_at(1, true);
  const auto i4 = run_at(4, true);
  for (std::size_t k = 0; k < n; ++k) {
    ASSERT_EQ(f1[k].real(), f4[k].real()) << k;
    ASSERT_EQ(f1[k].imag(), f4[k].imag()) << k;
    ASSERT_EQ(i1[k].real(), i4[k].real()) << k;
    ASSERT_EQ(i1[k].imag(), i4[k].imag()) << k;
  }
}

TEST_F(PlanDeterminismTest, RfftBitIdenticalAcrossThreadCounts) {
  const std::size_t n = std::size_t{1} << 18;  // h = 2^17 > grain
  const auto x = random_reals(n, 55);

  par::set_thread_count(1);
  const auto s = rfft(x);
  par::set_thread_count(4);
  const auto p = rfft(x);
  ASSERT_EQ(s.size(), p.size());
  for (std::size_t k = 0; k < s.size(); ++k) {
    ASSERT_EQ(s[k].real(), p[k].real()) << k;
    ASSERT_EQ(s[k].imag(), p[k].imag()) << k;
  }

  par::set_thread_count(1);
  const auto bs = irfft(s, n);
  par::set_thread_count(4);
  const auto bp = irfft(p, n);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(bs[i], bp[i]) << i;
}

TEST_F(PlanDeterminismTest, PeriodogramBitIdenticalAcrossThreadCounts) {
  const auto x = random_reals(std::size_t{1} << 18, 91);
  par::set_thread_count(1);
  const auto s = periodogram(x);
  par::set_thread_count(4);
  const auto p = periodogram(x);
  ASSERT_EQ(s.ordinate.size(), p.ordinate.size());
  for (std::size_t j = 0; j < s.ordinate.size(); ++j) {
    ASSERT_EQ(s.frequency[j], p.frequency[j]) << j;
    ASSERT_EQ(s.ordinate[j], p.ordinate[j]) << j;
  }
}

// --- golden pins: output bits of every transform -------------------------

std::vector<cd> random_complex(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<cd> z(n);
  for (auto& v : z) v = cd(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return z;
}

// FNV-1a over the bit pattern of every double, each fed low byte first.
std::uint64_t bits_digest(const double* v, std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < count; ++i) {
    const auto word = std::bit_cast<std::uint64_t>(v[i]);
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

std::uint64_t bits_digest(const std::vector<cd>& z) {
  return bits_digest(reinterpret_cast<const double*>(z.data()),
                     2 * z.size());
}

std::uint64_t bits_digest(const std::vector<double>& x) {
  return bits_digest(x.data(), x.size());
}

struct FftPin {
  const char* transform;  ///< "fft", "ifft", "rfft" or "irfft"
  std::size_t n;
  std::uint64_t digest;   ///< bits_digest of the output
};

// Radix-2 sizes, Bluestein sizes (75 and 150 are the monitor's Welch
// segment halves and lengths) and, for the real transforms, packed
// halves of both kinds. Inputs are seeded and finite.
constexpr FftPin kFftPins[] = {
    {"fft", 1, 0x21e2a903421de430},
    {"fft", 2, 0x05596ff405a07c87},
    {"fft", 3, 0x8557af07627401f6},
    {"fft", 5, 0x484a578577c97b8a},
    {"fft", 75, 0x4f88ae7f7f5ac06a},
    {"fft", 150, 0x32dad60747876dfc},
    {"fft", 256, 0x56fda4012571a3d0},
    {"fft", 1000, 0xb681ca29f0533ad1},
    {"fft", 4096, 0xe8bcabedb60a7755},
    {"ifft", 1, 0x21e2a903421de430},
    {"ifft", 2, 0x4e3861667461ff47},
    {"ifft", 3, 0x8a80ee4b74c115a6},
    {"ifft", 5, 0x8d408f36b679f0f1},
    {"ifft", 75, 0xf68418d594d599a6},
    {"ifft", 150, 0x9a9831796e934cd2},
    {"ifft", 256, 0x378a2b2d1a837eaf},
    {"ifft", 1000, 0x9cc61386124490a3},
    {"ifft", 4096, 0xc53c40d4b83a2618},
    {"rfft", 2, 0x5382e10ddd7ae4d5},
    {"rfft", 150, 0x46426032e00cc696},
    {"rfft", 300, 0x186d0e36e6672eec},
    {"rfft", 8192, 0xc4a14554e37145e1},
    {"irfft", 2, 0xb47de29f45de04e5},
    {"irfft", 150, 0xfe28062ea7aaa8c2},
    {"irfft", 300, 0xc473fcfe8d5e77cf},
    {"irfft", 8192, 0xcc95a69fec4e69b4},
};

std::vector<FftPin> computed_fft_pins() {
  std::vector<FftPin> out;
  for (const char* transform : {"fft", "ifft"}) {
    for (std::size_t n : {1, 2, 3, 5, 75, 150, 256, 1000, 4096}) {
      const auto z = random_complex(n, 5000 + n);
      const auto y = std::string(transform) == "fft" ? fft(z) : ifft(z);
      out.push_back({transform, n, bits_digest(y)});
    }
  }
  for (std::size_t n : {2, 150, 300, 8192})
    out.push_back({"rfft", n, bits_digest(rfft(random_reals(n, 6000 + n)))});
  for (std::size_t n : {2, 150, 300, 8192})
    out.push_back({"irfft", n,
                   bits_digest(irfft(random_complex(n / 2 + 1, 7000 + n),
                                     n))});
  return out;
}

// One pin as a row of kFftPins.
std::string fft_pin_row(const FftPin& p) {
  char row[96];
  std::snprintf(row, sizeof row, "{\"%s\", %zu, 0x%016llx},", p.transform,
                p.n, static_cast<unsigned long long>(p.digest));
  return row;
}

TEST(FftGoldenPins, OutputsKeepEveryBit) {
  const std::vector<FftPin> got = computed_fft_pins();
  std::string table;
  for (const FftPin& p : got) table += "    " + fft_pin_row(p) + "\n";
  ASSERT_EQ(got.size(), std::size(kFftPins)) << "computed rows:\n" << table;
  for (std::size_t k = 0; k < got.size(); ++k)
    EXPECT_EQ(fft_pin_row(got[k]), fft_pin_row(kFftPins[k]));
}

TEST_F(PlanCacheTest, BluesteinPlansAreCachedPerSizeAndDirection) {
  reset_plan_caches();
  const auto z = random_complex(150, 3);
  const auto first = fft(z);
  const auto built = bluestein_plan_cache_stats();
  EXPECT_EQ(built.misses, 1u);
  EXPECT_EQ(built.entries, 1u);

  // A second transform of the same size reuses the plan.
  const auto second = fft(z);
  const auto reused = bluestein_plan_cache_stats();
  EXPECT_EQ(reused.misses, 1u);
  EXPECT_EQ(reused.hits, built.hits + 1);
  EXPECT_EQ(bits_digest(first), bits_digest(second));

  // The inverse direction is a plan of its own; the real transform of
  // twice the size holds both directions' plans of its packed half.
  (void)ifft(z);
  EXPECT_EQ(bluestein_plan_cache_stats().misses, 2u);
  (void)rfft(random_reals(300, 4));
  const auto packed = bluestein_plan_cache_stats();
  EXPECT_EQ(packed.misses, 2u);
  EXPECT_EQ(packed.hits, reused.hits + 2);
  (void)rfft(random_reals(300, 5));
  EXPECT_EQ(bluestein_plan_cache_stats().hits, packed.hits);
}

// --- fGn eigenvalue cache ------------------------------------------------

TEST_F(PlanCacheTest, FgnEigenvaluesAreCachedPerSizeAndH) {
  selfsim::reset_fgn_eigen_cache();
  const auto e1 = selfsim::fgn_circulant_eigenvalues(4096, 0.8);
  const auto e2 = selfsim::fgn_circulant_eigenvalues(4096, 0.8);
  EXPECT_EQ(e1.get(), e2.get());

  // A different H is a different embedding.
  const auto e3 = selfsim::fgn_circulant_eigenvalues(4096, 0.7);
  EXPECT_NE(e1.get(), e3.get());

  const auto stats = selfsim::fgn_eigen_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 2u);

  // Generating a path reuses the cached eigenvalues (no new miss).
  rng::Rng rng(5);
  (void)selfsim::generate_fgn(rng, 4096, 0.8);
  EXPECT_EQ(selfsim::fgn_eigen_cache_stats().misses, 2u);
}

TEST_F(PlanCacheTest, FgnEigenvaluesAreNonnegativeAndSized) {
  selfsim::reset_fgn_eigen_cache();
  const std::size_t n = 1000;  // embedding pads to next_pow2(2 * 999)
  const auto eig = selfsim::fgn_circulant_eigenvalues(n, 0.75);
  const std::size_t m = next_power_of_two(2 * (n - 1));
  ASSERT_EQ(eig->size(), m / 2 + 1);
  for (double v : *eig) EXPECT_GE(v, 0.0);
}

}  // namespace
}  // namespace wan::fft
