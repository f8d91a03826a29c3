// Sliding-window estimation pins (ctest label `window`): SegmentRing
// add/evict parity against the batch AveragedPeriodogram (bitwise),
// bucket-boundary exactness of the windowed accumulator twins, the
// Whittle warm-start fallback on junk hints (search and refitter
// paths), exact-bit pins of the Whittle fits (one fit per grid, and a
// digest table of refits over many spectra), the refitter's rows built
// on first read and its scale and objective contract, concurrent fits
// on one shared refitter, and the end-to-end WindowedAnalyzer against
// the from-scratch reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <latch>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/fft/periodogram.hpp"
#include "src/fft/rolling_periodogram.hpp"
#include "src/rng/rng.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/poisson_test.hpp"
#include "src/stats/variance_time.hpp"
#include "src/stats/whittle.hpp"
#include "src/stats/window.hpp"
#include "src/stream/columnar.hpp"
#include "src/stream/window_analyzer.hpp"

namespace wan {
namespace {

std::vector<double> count_series(std::size_t n, unsigned seed,
                                 double mean = 2.0) {
  std::mt19937 gen(seed);
  std::poisson_distribution<int> pois(mean);
  std::vector<double> x(n);
  for (double& v : x) v = static_cast<double>(pois(gen));
  return x;
}

/// Sorted arrival times on [0, span) with exponential gaps of the given
/// mean — a Poisson stream, which both the windowed tester and the
/// Whittle fit (H ~ 1/2) have known answers for.
std::vector<double> poisson_arrivals(double span, double mean_gap,
                                     unsigned seed) {
  std::mt19937 gen(seed);
  std::exponential_distribution<double> gap(1.0 / mean_gap);
  std::vector<double> times;
  for (double t = gap(gen); t < span; t += gap(gen)) times.push_back(t);
  return times;
}

// --- SegmentRing: add/evict parity with the batch accumulator ----------

TEST(SegmentRing, EvictionMatchesBatchOverTrailingWindowBitwise) {
  constexpr std::size_t kSeg = 32, kCap = 4, kTotal = 11;
  const std::vector<double> x = count_series(kSeg * kTotal, 101);

  fft::SegmentRing ring(kSeg, kCap);
  ring.push_samples(std::span<const double>(x));
  ASSERT_EQ(ring.segments(), kCap);
  ASSERT_EQ(ring.total_segments(), kTotal);
  ASSERT_EQ(ring.pending(), 0u);

  // Batch accumulator over ONLY the last kCap segments, in push order.
  fft::AveragedPeriodogram batch(kSeg);
  for (std::size_t s = kTotal - kCap; s < kTotal; ++s)
    batch.push(std::span<const double>(x).subspan(s * kSeg, kSeg));

  const fft::Periodogram rolled = ring.finish();
  const fft::Periodogram direct = batch.finish();
  ASSERT_EQ(rolled.frequency, direct.frequency);
  EXPECT_EQ(rolled.ordinate, direct.ordinate);  // bitwise, by design

  // averaged() holds the same state as the batch accumulator.
  const fft::Periodogram bridged = ring.averaged().finish();
  EXPECT_EQ(bridged.ordinate, direct.ordinate);
}

TEST(SegmentRingCascade, LevelsMatchRepeatedPairwiseMeanBitwise) {
  constexpr std::size_t kSeg = 16, kBaseCap = 8, kLevels = 2;
  const std::vector<double> x = count_series(kSeg * kBaseCap * 3, 102);

  fft::SegmentRingCascade cascade(kSeg, kBaseCap, kLevels);
  cascade.push_samples(std::span<const double>(x));

  // Every level's window covers the same trailing base-sample range.
  std::vector<double> window(x.end() - kSeg * kBaseCap, x.end());
  for (std::size_t level = 0; level <= kLevels; ++level) {
    if (level > 0) window = stats::aggregate_mean(window, 2);
    fft::AveragedPeriodogram batch(kSeg);
    for (std::size_t s = 0; s + kSeg <= window.size(); s += kSeg)
      batch.push(std::span<const double>(window).subspan(s, kSeg));
    EXPECT_EQ(cascade.ring(level).finish().ordinate, batch.finish().ordinate)
        << "level " << level;
  }
}

// --- Windowed accumulators: bucket-boundary exactness -------------------

TEST(WindowedBinCounts, AlignedWindowMatchesBatchBinCountsExactly) {
  const std::vector<double> times = poisson_arrivals(100.0, 0.05, 103);
  constexpr double kBin = 0.5;
  constexpr std::size_t kWindowBins = 40;  // 20 s window

  stats::WindowedBinCounts win(0.0, kBin, kWindowBins);
  win.add(std::span<const double>(times));
  win.advance_to(100.25);  // completes bins through [.., 100.0)

  std::vector<double> rolled;
  win.window_counts(rolled);
  const std::vector<double> batch = stats::bin_counts(
      times, 100.0 - kBin * kWindowBins, 100.0, kBin);
  EXPECT_EQ(rolled, batch);
  EXPECT_EQ(win.completed_bins(), 200u);
}

TEST(WindowedBinCounts, NonFiniteTimeThrows) {
  // A NaN passes the t0 check and has no grid index; converted anyway,
  // it would close about 2^63 bins.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  stats::WindowedBinCounts win(0.0, 1.0, 10);
  win.add(0.5);
  for (const double t : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf})
    EXPECT_THROW(win.add(t), std::invalid_argument) << t;
  EXPECT_EQ(win.events(), 1u);
  EXPECT_EQ(win.completed_bins(), 0u);
}

TEST(WindowedBinCounts, TimeBeyondTheGridThrowsWithoutClosingBins) {
  // (1e300 - 0) / 1 has no uint64_t bin index. Converted anyway, it
  // landed in bin 0 and drew a false "precedes a completed bin".
  stats::WindowedBinCounts win(0.0, 1.0, 10);
  win.add(5.0);
  try {
    win.add(1e300);
    ADD_FAILURE() << "add(1e300) returned";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("time 1.0000000000000001e+300"), std::string::npos)
        << what;
  }
  EXPECT_EQ(win.events(), 1u);
  EXPECT_EQ(win.completed_bins(), 5u);
  EXPECT_THROW(win.advance_to(1e300), std::invalid_argument);
  win.add(6.5);  // still open for business
  EXPECT_EQ(win.completed_bins(), 6u);
}

TEST(WindowedBinCounts, SnapshotRoundTripsThroughBatchAccumulator) {
  const std::vector<double> times = poisson_arrivals(30.0, 0.2, 104);
  stats::WindowedBinCounts win(0.0, 1.0, 10);
  win.add(std::span<const double>(times));
  win.advance_to(30.5);

  // The window on the absolute grid: the 10 completed bins that end
  // where the open bin starts.
  const double t1 = static_cast<double>(win.completed_bins()) * win.bin();
  stats::BinCountsAccumulator batch(t1 - 10.0, t1, 1.0);
  batch.add(std::span<const double>(times));
  std::vector<double> rolled;
  win.window_counts(rolled);
  EXPECT_EQ(batch.counts(), rolled);
  EXPECT_EQ(t1, 30.0);
}

TEST(WindowedBurstLull, MergedIsBitIdenticalToBatchOverWindow) {
  const std::vector<double> x = count_series(730, 105, 0.7);
  constexpr std::size_t kBucket = 25, kBuckets = 8;  // 200-bin window

  stats::WindowedBurstLull win(kBucket, kBuckets);
  win.push(std::span<const double>(x));
  ASSERT_EQ(win.open_observations(), 730 % kBucket);

  // Batch accumulator over the merged() coverage: the resident closed
  // buckets plus the open tail.
  const std::size_t covered = win.window_observations();
  stats::BurstLullAccumulator batch;
  for (std::size_t i = x.size() - covered; i < x.size(); ++i)
    batch.push(x[i]);

  const stats::BurstLull a = win.merged().finish();
  const stats::BurstLull b = batch.finish();
  EXPECT_EQ(a.mean_burst_bins(), b.mean_burst_bins());
  EXPECT_EQ(a.mean_lull_bins(), b.mean_lull_bins());
}

TEST(WindowedMoments, MergedMatchesSerialPassToRounding) {
  const std::vector<double> x = count_series(600, 106);
  stats::WindowedMoments win(50, 4);  // 200-bin window
  win.push(std::span<const double>(x));

  stats::MomentAccumulator serial;
  for (std::size_t i = x.size() - 200; i < x.size(); ++i) serial.push(x[i]);

  const stats::MomentAccumulator merged = win.merged();
  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_NEAR(merged.mean(), serial.mean(), 1e-12 * std::abs(serial.mean()));
  EXPECT_NEAR(merged.variance_population(), serial.variance_population(),
              1e-10 * serial.variance_population());
}

TEST(WindowedPoissonTest, RingMatchesBatchTestOverAlignedWindow) {
  const std::vector<double> times = poisson_arrivals(100.0, 0.08, 108);
  stats::PoissonTestConfig config;
  config.interval_length = 10.0;
  constexpr std::size_t kWindowIntervals = 4;

  stats::WindowedPoissonTest win(config, 0.0, kWindowIntervals);
  win.push(std::span<const double>(times));
  win.advance_to(100.5);  // completes intervals 0..9; window = 6..9
  ASSERT_EQ(win.completed_intervals(), 10u);

  std::vector<double> tail;
  for (double t : times)
    if (t >= 60.0 && t < 100.0) tail.push_back(t);
  const stats::PoissonTestResult batch =
      stats::test_poisson_arrivals(tail, config, 60.0, 100.0);

  const stats::PoissonTestResult rolled = win.result();
  EXPECT_EQ(rolled.n_intervals, batch.n_intervals);
  EXPECT_EQ(rolled.n_pass_exponential, batch.n_pass_exponential);
  EXPECT_EQ(rolled.n_pass_independence, batch.n_pass_independence);
  EXPECT_EQ(rolled.poisson, batch.poisson);
}

TEST(WindowedPoissonTest, NonFiniteOrOffGridTimeThrows) {
  // 1e300 used to convert to interval 0 unchecked, so interval 0's A^2
  // ran on a 1e300 s gap; a NaN or an infinity has no interval at all.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  stats::PoissonTestConfig config;
  config.interval_length = 60.0;
  stats::WindowedPoissonTest win(config, 0.0, 4);
  win.push(5.0);
  ASSERT_THROW(win.push(1e300), std::invalid_argument);
  for (const double t : {kNaN, kInf, -kInf})
    EXPECT_THROW(win.push(t), std::invalid_argument) << t;
  EXPECT_THROW(win.advance_to(1e300), std::invalid_argument);
  EXPECT_EQ(win.completed_intervals(), 0u);
  for (const double t : {6.0, 7.0, 9.0, 12.0, 20.0, 31.0}) win.push(t);
  win.advance_to(60.5);
  const stats::PoissonTestResult r = win.result();
  ASSERT_EQ(r.intervals.size(), 1u);
  EXPECT_EQ(r.intervals[0].n_interarrivals, 6u);  // 5 .. 31 s, no 1e300
}

// --- Whittle warm starts and the block-update refitter ------------------

fft::Periodogram noise_periodogram(unsigned seed) {
  const std::vector<double> x = count_series(2048, seed, 5.0);
  fft::AveragedPeriodogram averaged(256);
  for (std::size_t s = 0; s + 256 <= x.size(); s += 256)
    averaged.push(std::span<const double>(x).subspan(s, 256));
  return averaged.finish();
}

TEST(WhittleWarmStart, JunkHintFallsBackToTheGridSearchResult) {
  const fft::Periodogram pg = noise_periodogram(109);
  const stats::WhittleResult cold = stats::whittle_fgn_from_periodogram(pg);

  // A hint nowhere near the minimum fails the 3-point bracket check and
  // the search falls back to the 21-point grid — same minimizer bits.
  stats::WhittleOptions junk;
  junk.hurst_hint = 0.97;
  const stats::WhittleResult warm = stats::whittle_fgn_from_periodogram(pg, junk);
  EXPECT_EQ(warm.hurst, cold.hurst);
  EXPECT_EQ(warm.objective, cold.objective);

  // A valid hint brackets immediately; the refinement window differs,
  // so agreement is to the golden-section tolerance, not bitwise.
  stats::WhittleOptions good;
  good.hurst_hint = cold.hurst;
  const stats::WhittleResult hinted =
      stats::whittle_fgn_from_periodogram(pg, good);
  EXPECT_NEAR(hinted.hurst, cold.hurst, 1e-3);
}

TEST(WhittleRefitter, MatchesColdFitWithinLatticeContract) {
  const fft::Periodogram pg = noise_periodogram(110);
  const stats::WhittleResult cold = stats::whittle_fgn_from_periodogram(pg);

  stats::WhittleRefitter refitter(pg.frequency);
  const stats::WhittleResult refit = refitter.fit(pg);
  EXPECT_NEAR(refit.hurst, cold.hurst, 1e-4);  // the documented contract
  EXPECT_NEAR(refit.objective, cold.objective, 1e-6);
  EXPECT_GT(refit.stderr_hurst, 0.0);

  // Poisson counts are H = 1/2 noise; the fit should say so.
  EXPECT_NEAR(refit.hurst, 0.5, 0.1);
}

TEST(WhittleRefitter, HintWindowAndJunkHintAgreeWithFullScan) {
  const fft::Periodogram pg = noise_periodogram(111);
  stats::WhittleRefitter refitter(pg.frequency);
  const stats::WhittleResult full = refitter.fit(pg);

  stats::WhittleOptions near_hint;
  near_hint.hurst_hint = full.hurst;
  EXPECT_EQ(refitter.fit(pg, near_hint).hurst, full.hurst);

  // A junk hint's neighborhood minimum lands on the window edge, which
  // hands the fit to the cold scan — identical winner, identical bits.
  stats::WhittleOptions junk;
  junk.hurst_hint = 0.95;
  EXPECT_EQ(refitter.fit(pg, junk).hurst, full.hurst);
}

TEST(WhittleRefitter, RejectsMismatchedFrequencyGrid) {
  const fft::Periodogram pg = noise_periodogram(112);
  stats::WhittleRefitter refitter(pg.frequency);

  const std::vector<double> x = count_series(128, 113, 5.0);
  fft::AveragedPeriodogram other(128);
  other.push(std::span<const double>(x));
  EXPECT_THROW(refitter.fit(other.finish()), std::invalid_argument);
  EXPECT_THROW(stats::WhittleRefitter(std::vector<double>{0.1, 0.2}),
               std::invalid_argument);
}

// --- Whittle bit pins and the shared refitter --------------------------

/// A periodogram on fourier_frequencies(n): uniform noise times a
/// lambda^(-1/2) power law, or flat noise. Built from the repo RNG with
/// sqrt and division only, both correctly rounded, so the input bits
/// depend on neither the FFT nor the math library's accuracy.
fft::Periodogram synthetic_periodogram(std::size_t n, std::uint64_t seed,
                                       bool long_range = true) {
  fft::Periodogram pg;
  pg.frequency = fft::fourier_frequencies(n);
  rng::Rng rng(seed);
  for (const double lambda : pg.frequency)
    pg.ordinate.push_back((0.05 + rng.uniform01()) /
                          (long_range ? std::sqrt(lambda) : 1.0));
  return pg;
}

/// A fit's hurst, scale, objective and stderr as the hex of their bits:
/// the exact pin, readable in a failure message.
std::string hex_bits(const stats::WhittleResult& r) {
  std::string out;
  for (const double v : {r.hurst, r.scale, r.objective, r.stderr_hurst}) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(v)));
    if (!out.empty()) out += ' ';
    out += buf;
  }
  return out;
}

// The pinned bits come from the evaluator that computed all 513 density
// nodes for every candidate H. Evaluating only the nodes a grid reads
// must reproduce them exactly, on a grid that reads few nodes and on one
// that reads them all. A refit's scale and objective are its refining
// stencil's values, within 1e-7 relative of the exact objective at the
// fitted H (ScaleAndObjectiveMatchTheDensityAtTheFit).
TEST(WhittleBitPins, MonitorGridFitsKeepEveryBit) {
  // The monitor's default geometry: 300-bin slides at sweep level 1
  // give 150-bin segments, hence 74 ordinates reading 148 of 513 nodes.
  const fft::Periodogram pg = synthetic_periodogram(150, 1201);
  ASSERT_EQ(pg.frequency.size(), 74u);
  // The grid the monitor builds its shared refitter on is the grid its
  // engines' rolling periodograms land on.
  fft::SegmentRing ring(150, 2);
  ring.push_samples(count_series(300, 1202));
  ASSERT_EQ(ring.finish().frequency, pg.frequency);

  const stats::WhittleRefitter refitter(pg.frequency);
  EXPECT_EQ(hex_bits(refitter.fit(pg)),
            "3fe4f7662953ef61 400bafba05db393a bfe5c5525f599cf5 "
            "3fb4a85bb363d848");
  EXPECT_EQ(hex_bits(stats::whittle_fgn_from_periodogram(pg)),
            "3fe4f767dd64c469 400bafbbb09f1f39 bfe5c5525f56642e "
            "3fb4a86506fe4882");
}

TEST(WhittleBitPins, DenseGridFitsKeepEveryBit) {
  // 4095 ordinates, about eight per node interval: every node is read.
  const fft::Periodogram pg = synthetic_periodogram(8192, 1203);
  // A coarser lattice than the default keeps the row builds cheap under
  // the sanitizers.
  const stats::WhittleRefitter refitter(pg.frequency, 1e-2);
  EXPECT_EQ(hex_bits(refitter.fit(pg)),
            "3fe75a57d03f0a3e 400ea4edf2a7697a bfe5c7e871c9522d "
            "3f8487f447df71d9");
  EXPECT_EQ(hex_bits(stats::whittle_fgn_from_periodogram(pg)),
            "3fe75a5cc307eb27 400ea4f742603739 bfe5c7e870713266 "
            "3f8488a96d074d03");
}

/// The spectrum shapes of the refit pin table.
enum class Shape { kPowerLaw, kSpike, kZeros, kFlat, kWideRange };

/// A periodogram of the given shape on fourier_frequencies(n), from the
/// repo RNG with +, x, / and sqrt only (all correctly rounded):
///   kPowerLaw  uniform noise times lambda^(k/4), k drawn from -6..8;
///   kSpike     zeros but one ordinate;
///   kZeros     every ordinate zero;
///   kFlat      one constant;
///   kWideRange uniform noise times 1e8^k, k drawn per ordinate from -4..4.
fft::Periodogram shaped_periodogram(std::size_t n, Shape shape,
                                    rng::Rng& rng) {
  fft::Periodogram pg;
  pg.frequency = fft::fourier_frequencies(n);
  pg.ordinate.assign(pg.frequency.size(), 0.0);
  switch (shape) {
    case Shape::kPowerLaw: {
      const int k = static_cast<int>(rng.uniform_int(15)) - 6;
      for (std::size_t j = 0; j < pg.frequency.size(); ++j) {
        const double quarter = std::sqrt(std::sqrt(pg.frequency[j]));
        double power = 1.0;
        for (int i = 0; i < std::abs(k); ++i) power *= quarter;
        const double noise = 0.05 + rng.uniform01();
        pg.ordinate[j] = k < 0 ? noise / power : noise * power;
      }
      break;
    }
    case Shape::kSpike:
      pg.ordinate[rng.uniform_int(pg.ordinate.size())] =
          1.0 + rng.uniform01();
      break;
    case Shape::kZeros:
      break;
    case Shape::kFlat: {
      const double level = 0.5 + rng.uniform01();
      for (double& v : pg.ordinate) v = level;
      break;
    }
    case Shape::kWideRange:
      for (double& v : pg.ordinate) {
        const int k = static_cast<int>(rng.uniform_int(9)) - 4;
        v = 0.05 + rng.uniform01();
        for (int i = 0; i < std::abs(k); ++i) v = k < 0 ? v / 1e8 : v * 1e8;
      }
      break;
  }
  return pg;
}

/// FNV-1a over the bytes of a double's bits.
std::uint64_t fold_bits(std::uint64_t hash, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (bits >> shift) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// The hurst and stderr_hurst bits of cold and hinted refits over 1,120
// periodograms (56 per row), folded into one FNV-1a digest per grid and
// shape. Even periodograms take a hint within 0.1 of their cold fit,
// which lands inside the hint window or just escapes it; odd ones take
// a hint drawn from [0, 1), junk included. The digests were taken from
// the refitter that built every lattice row up front and scanned every
// row of a cold fit; building rows on demand and scanning coarse to
// fine must find the same winners and keep every bit.
TEST(WhittleBitPins, RefitHurstAndStderrTable) {
  struct Row {
    std::size_t n;
    Shape shape;
    const char* name;
    std::uint64_t digest;
  };
  const Row table[] = {
      {18, Shape::kPowerLaw, "power-law", 0xcbabe20f8e3eec95ULL},
      {18, Shape::kSpike, "spike", 0x19dc817862ffd341ULL},
      {18, Shape::kZeros, "zeros", 0xc01b2ddafd3f1f25ULL},
      {18, Shape::kFlat, "flat", 0x0f6232922cd32db5ULL},
      {18, Shape::kWideRange, "wide-range", 0xc76c9a305d6d835dULL},
      {150, Shape::kPowerLaw, "power-law", 0x3103eb028479e0c5ULL},
      {150, Shape::kSpike, "spike", 0xe5315b0ab514b571ULL},
      {150, Shape::kZeros, "zeros", 0xc01b2ddafd3f1f25ULL},
      {150, Shape::kFlat, "flat", 0xae7c299c4a1eb4a9ULL},
      {150, Shape::kWideRange, "wide-range", 0xde122546b96a7ae7ULL},
      {300, Shape::kPowerLaw, "power-law", 0xf4717487a0da72e5ULL},
      {300, Shape::kSpike, "spike", 0xc4f0623e0fe442f1ULL},
      {300, Shape::kZeros, "zeros", 0xc01b2ddafd3f1f25ULL},
      {300, Shape::kFlat, "flat", 0x4feed22296d52ed1ULL},
      {300, Shape::kWideRange, "wide-range", 0x99468ff925fa1e11ULL},
      {1024, Shape::kPowerLaw, "power-law", 0x955a33dafe338355ULL},
      {1024, Shape::kSpike, "spike", 0x7b6799b5a4cbc625ULL},
      {1024, Shape::kZeros, "zeros", 0xc01b2ddafd3f1f25ULL},
      {1024, Shape::kFlat, "flat", 0x0c4f1ec0b4c75945ULL},
      {1024, Shape::kWideRange, "wide-range", 0xe9b6ae1d6756d1d1ULL},
  };
  constexpr std::size_t kPerRow = 56;
  std::size_t fits = 0;
  for (const std::size_t n : {18, 150, 300, 1024}) {
    const stats::WhittleRefitter refitter(fft::fourier_frequencies(n));
    for (const Row& row : table) {
      if (row.n != n) continue;
      rng::Rng rng(0x5eed0000u + n * 16 + static_cast<unsigned>(row.shape));
      std::uint64_t digest = 0xcbf29ce484222325ULL;
      for (std::size_t i = 0; i < kPerRow; ++i) {
        const fft::Periodogram pg = shaped_periodogram(n, row.shape, rng);
        const stats::WhittleResult cold = refitter.fit(pg);
        stats::WhittleOptions hinted;
        hinted.hurst_hint = i % 2 == 0
                                ? cold.hurst + 0.2 * rng.uniform01() - 0.1
                                : rng.uniform01();
        const stats::WhittleResult warm = refitter.fit(pg, hinted);
        for (const double v :
             {cold.hurst, cold.stderr_hurst, warm.hurst, warm.stderr_hurst})
          digest = fold_bits(digest, v);
        fits += 2;
      }
      char got[20];
      std::snprintf(got, sizeof(got), "%016llx",
                    static_cast<unsigned long long>(digest));
      char want[20];
      std::snprintf(want, sizeof(want), "%016llx",
                    static_cast<unsigned long long>(row.digest));
      EXPECT_STREQ(got, want) << "n = " << n << ", " << row.name;
    }
  }
  EXPECT_EQ(fits, 2 * kPerRow * std::size(table));
}

TEST(WhittleRefitter, BuildsOnlyTheRowsItsFitsRead) {
  const std::vector<double> grid = fft::fourier_frequencies(150);
  const fft::Periodogram pg = synthetic_periodogram(150, 1250);

  const stats::WhittleRefitter cold(grid);
  ASSERT_EQ(cold.candidates(), 486u);
  EXPECT_EQ(cold.rows_built(), 0u);  // construction evaluates no density
  const stats::WhittleResult fit = cold.fit(pg);
  EXPECT_GT(cold.rows_built(), 0u);
  EXPECT_LT(cold.rows_built(), 100u);  // coarse to fine, not all 486
  const std::size_t after_one = cold.rows_built();
  EXPECT_EQ(hex_bits(cold.fit(pg)), hex_bits(fit));
  EXPECT_EQ(cold.rows_built(), after_one);  // a row is built once

  const stats::WhittleRefitter hinted(grid);
  stats::WhittleOptions near;
  near.hurst_hint = fit.hurst;
  EXPECT_EQ(hex_bits(hinted.fit(pg, near)), hex_bits(fit));
  EXPECT_GT(hinted.rows_built(), 0u);
  EXPECT_LT(hinted.rows_built(), 60u);  // the +-0.05 window only
}

/// Q(H) and the profiled scale at H, from fgn_spectral_density itself.
stats::WhittleResult exact_objective(const fft::Periodogram& pg, double h) {
  double ratio = 0.0, log_f = 0.0;
  for (std::size_t j = 0; j < pg.frequency.size(); ++j) {
    const double f = stats::fgn_spectral_density(pg.frequency[j], h);
    ratio += pg.ordinate[j] / f;
    log_f += std::log(f);
  }
  const double m = static_cast<double>(pg.frequency.size());
  stats::WhittleResult r;
  r.hurst = h;
  r.scale = ratio / m;
  r.objective = std::log(r.scale) + log_f / m;
  return r;
}

TEST(WhittleRefitter, ScaleAndObjectiveMatchTheDensityAtTheFit) {
  // At the default lattice spacing; the error grows as the spacing to
  // the fourth power (about 3e-7 for the scale at 1e-2).
  const auto check = [](std::size_t n, std::uint64_t seed) {
    const stats::WhittleRefitter refitter(fft::fourier_frequencies(n));
    for (std::uint64_t i = 0; i < 6; ++i) {
      const fft::Periodogram pg =
          synthetic_periodogram(n, seed + i, i % 3 != 2);
      stats::WhittleOptions hint;
      if (i % 2 == 1) hint.hurst_hint = 0.6;
      const stats::WhittleResult fit = refitter.fit(pg, hint);
      const stats::WhittleResult exact = exact_objective(pg, fit.hurst);
      EXPECT_NEAR(fit.objective, exact.objective,
                  1e-7 * std::abs(exact.objective))
          << "n = " << n << ", periodogram " << i;
      EXPECT_NEAR(fit.scale, exact.scale, 1e-7 * exact.scale)
          << "n = " << n << ", periodogram " << i;
    }
  };
  check(150, 1260);   // the monitor grid: 74 ordinates, 148 nodes read
  check(1024, 1270);  // 511 ordinates: every node read

  // Degenerate periodograms keep their limits: all zeros profile to a
  // zero scale, an infinite ordinate to an infinite one.
  const stats::WhittleRefitter refitter(fft::fourier_frequencies(150));
  fft::Periodogram pg = synthetic_periodogram(150, 1280);
  std::fill(pg.ordinate.begin(), pg.ordinate.end(), 0.0);
  const stats::WhittleResult zeros = refitter.fit(pg);
  EXPECT_EQ(zeros.objective, -HUGE_VAL);
  EXPECT_EQ(zeros.scale, 0.0);
  pg.ordinate[7] = HUGE_VAL;
  const stats::WhittleResult inf = refitter.fit(pg);
  EXPECT_EQ(inf.objective, HUGE_VAL);
  EXPECT_EQ(inf.scale, HUGE_VAL);
}

// Four threads run the same fits on one fresh refitter, started
// together, so every row a fit reads is first read by all four at once:
// each row is built by exactly one of them, and every thread gets the
// bits a lone refitter gives.
TEST(WhittleRefitter, ConcurrentFitsOnOneRefitterMatchSerialBits) {
  const std::vector<double> grid = fft::fourier_frequencies(150);
  constexpr std::size_t kThreads = 4, kFits = 24;
  std::vector<fft::Periodogram> pgs;
  std::vector<stats::WhittleOptions> options;
  std::vector<std::string> serial;
  const stats::WhittleRefitter alone(grid);
  for (std::size_t i = 0; i < kFits; ++i) {
    pgs.push_back(synthetic_periodogram(150, 1300 + i, i % 3 != 0));
    stats::WhittleOptions o;
    if (i % 2 == 1) o.hurst_hint = 0.55 + 0.015 * static_cast<double>(i);
    options.push_back(o);
    serial.push_back(hex_bits(alone.fit(pgs[i], options[i])));
  }

  const stats::WhittleRefitter shared(grid);
  std::vector<std::vector<std::string>> concurrent(kThreads);
  {
    std::latch start(kThreads);
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (std::size_t i = 0; i < kFits; ++i)
          concurrent[t].push_back(hex_bits(shared.fit(pgs[i], options[i])));
      });
  }  // the jthreads join here
  for (std::size_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(concurrent[t], serial) << "thread " << t;
  EXPECT_EQ(shared.rows_built(), alone.rows_built());
}

// --- Geometry validation ------------------------------------------------

TEST(WindowGeometry, RejectsMisalignedSpansWithReasonedMessages) {
  stream::WindowedOptions opt;
  opt.bin = 1.0;
  EXPECT_THROW(stream::window_geometry(opt), std::invalid_argument);  // no window

  opt.window = 64.0;
  opt.slide = 24.0;  // does not divide the window
  EXPECT_THROW(stream::window_geometry(opt), std::invalid_argument);

  opt.slide = 32.0;
  opt.poisson_interval = 7.0;  // does not divide the slide
  EXPECT_THROW(stream::window_geometry(opt), std::invalid_argument);

  opt.poisson_interval = 8.0;
  opt.segment_bins = 6;  // does not tile the slide
  EXPECT_THROW(stream::window_geometry(opt), std::invalid_argument);

  opt.segment_bins = 8;
  const stream::WindowGeometry g = stream::window_geometry(opt);
  EXPECT_EQ(g.window_bins, 64u);
  EXPECT_EQ(g.slide_bins, 32u);
  EXPECT_EQ(g.segments_per_window, 8u);
  EXPECT_EQ(g.window_intervals, 8u);
  EXPECT_EQ(g.intervals_per_slide, 4u);
}

// --- End-to-end analyzer vs the from-scratch reference ------------------

stream::WindowedOptions small_options() {
  stream::WindowedOptions opt;
  opt.bin = 0.5;
  opt.window = 60.0;
  opt.slide = 30.0;
  opt.sweep_levels = 1;  // segment = slide_bins / 2 = 30 bins
  opt.poisson_interval = 10.0;
  return opt;
}

TEST(WindowedAnalyzer, ReportsMatchBatchRecomputationPerWindow) {
  const stream::WindowedOptions opt = small_options();
  const std::vector<double> times = poisson_arrivals(300.0, 0.04, 114);

  std::vector<stream::WindowReport> rolling;
  stream::WindowedAnalyzer engine(
      opt, 0.0, [&](const stream::WindowReport& r) { rolling.push_back(r); });
  // Chunked pushes, like a source drain.
  for (std::size_t i = 0; i < times.size(); i += 97) {
    const std::size_t n = std::min<std::size_t>(97, times.size() - i);
    engine.push_times(std::span<const double>(times).subspan(i, n));
  }
  engine.finish(300.0);

  ASSERT_EQ(rolling.size(), 9u);  // t1 = 60, 90, ..., 300
  EXPECT_FALSE(rolling.front().whittle_warm);
  EXPECT_TRUE(rolling.back().whittle_warm);

  for (const stream::WindowReport& r : rolling) {
    std::vector<double> in_window;
    for (double t : times)
      if (t >= r.t0 && t < r.t1) in_window.push_back(t);
    const stream::WindowReport batch =
        stream::analyze_window_batch(in_window, r.t0, opt);

    EXPECT_EQ(r.packets, batch.packets);
    EXPECT_EQ(r.mean_burst_bins, batch.mean_burst_bins);
    EXPECT_EQ(r.mean_lull_bins, batch.mean_lull_bins);
    EXPECT_EQ(r.vt_hurst, batch.vt_hurst);
    EXPECT_NEAR(r.mean_count, batch.mean_count,
                1e-12 * std::abs(batch.mean_count));
    EXPECT_NEAR(r.var_count, batch.var_count, 1e-12 * batch.var_count);
    EXPECT_NEAR(r.whittle.hurst, batch.whittle.hurst, 1e-4);
    ASSERT_EQ(r.sweep_hurst.size(), batch.sweep_hurst.size());
    for (std::size_t l = 0; l < r.sweep_hurst.size(); ++l)
      EXPECT_NEAR(r.sweep_hurst[l], batch.sweep_hurst[l], 1e-4);
    ASSERT_TRUE(r.poisson.has_value());
    ASSERT_TRUE(batch.poisson.has_value());
    EXPECT_EQ(r.poisson->n_intervals, batch.poisson->n_intervals);
    EXPECT_EQ(r.poisson->n_pass_exponential,
              batch.poisson->n_pass_exponential);
    EXPECT_EQ(r.poisson->n_pass_independence,
              batch.poisson->n_pass_independence);
  }
}

TEST(WindowedAnalyzer, BatchReferenceSkipsNonFiniteTimes) {
  stream::WindowedOptions opt = small_options();
  opt.poisson_interval = 0.0;  // the binning alone
  const std::vector<double> times = poisson_arrivals(60.0, 0.04, 115);
  std::vector<double> with_bad = times;
  with_bad.push_back(std::numeric_limits<double>::quiet_NaN());
  with_bad.push_back(std::numeric_limits<double>::infinity());
  const stream::WindowReport want =
      stream::analyze_window_batch(times, 0.0, opt);
  const stream::WindowReport got =
      stream::analyze_window_batch(with_bad, 0.0, opt);
  EXPECT_EQ(got.packets, want.packets);
  EXPECT_EQ(got.mean_count, want.mean_count);
  EXPECT_EQ(got.var_count, want.var_count);
  EXPECT_EQ(got.vt_hurst, want.vt_hurst);
}

TEST(WindowedAnalyzer, NonFiniteStreamEndThrows) {
  // A source whose info() ends at NaN (a binary header could say so
  // before its reader checked) has no whole bin count: the converted
  // NaN passed the window-length check and finish() then closed bins
  // without end.
  const stream::WindowedOptions opt = small_options();
  const std::vector<double> times = poisson_arrivals(120.0, 0.05, 116);
  stream::PacketColumns table;
  for (const double t : times) {
    trace::PacketRecord r;
    r.time = t;
    table.push_back(r);
  }
  for (const double t_end : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    stream::ColumnTableSource src(table, {"nan-end", 0.0, t_end});
    EXPECT_THROW(stream::analyze_windowed(src, opt), std::invalid_argument)
        << t_end;
    stream::WindowedAnalyzer engine(opt, 0.0,
                                    [](const stream::WindowReport&) {});
    engine.push_times(times);
    EXPECT_THROW(engine.finish(t_end), std::invalid_argument) << t_end;
  }
}

TEST(WindowedAnalyzer, CsvAndToStringRenderEveryReport) {
  const stream::WindowedOptions opt = small_options();
  const std::vector<double> times = poisson_arrivals(120.0, 0.05, 115);

  std::vector<stream::WindowReport> reports;
  stream::WindowedAnalyzer engine(
      opt, 0.0, [&](const stream::WindowReport& r) { reports.push_back(r); });
  engine.push_times(times);
  engine.finish(120.0);
  ASSERT_EQ(reports.size(), 3u);

  EXPECT_NE(stream::window_csv_header().find("whittle_hurst"),
            std::string::npos);
  for (const stream::WindowReport& r : reports) {
    const std::string row = stream::window_csv_row(r);
    EXPECT_EQ(std::count(row.begin(), row.end(), ','), 14);
    EXPECT_NE(stream::to_string(r).find("pkts="), std::string::npos);
  }
}

}  // namespace
}  // namespace wan
