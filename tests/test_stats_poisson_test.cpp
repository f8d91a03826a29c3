#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/dist/exponential.hpp"
#include "src/dist/lognormal.hpp"
#include "src/dist/pareto.hpp"
#include "src/rng/rng.hpp"
#include "src/stats/anderson_darling.hpp"
#include "src/stats/poisson_test.hpp"
#include "src/synth/arrivals.hpp"

namespace wan::stats {
namespace {

std::vector<double> homogeneous_poisson(rng::Rng& rng, double rate,
                                        double t1) {
  std::vector<double> t;
  double now = 0.0;
  while (true) {
    now += -std::log(rng.uniform01_open_below()) / rate;
    if (now >= t1) break;
    t.push_back(now);
  }
  return t;
}

TEST(PoissonTest, TruePoissonIsConsistent) {
  rng::Rng rng(1);
  // 12 "hours" at 120 arrivals/hour.
  const auto times = homogeneous_poisson(rng, 120.0 / 3600.0, 12 * 3600.0);
  PoissonTestConfig cfg;
  cfg.interval_length = 3600.0;
  const auto r = test_poisson_arrivals(times, cfg, 0.0, 12 * 3600.0);
  EXPECT_EQ(r.n_intervals, 12u);
  EXPECT_TRUE(r.poisson) << to_string(r);
  EXPECT_EQ(r.lag1_sign_bias, 0);
  EXPECT_GT(r.frac_pass_exponential, 0.7);
  EXPECT_GT(r.frac_pass_independence, 0.7);
}

TEST(PoissonTest, HourlyVaryingPoissonStillConsistentPerHour) {
  // The paper's actual model: rate fixed within each hour, varying
  // across hours. Interval-length = 1 h should accept it.
  rng::Rng rng(2);
  const synth::DiurnalProfile profile = synth::DiurnalProfile::telnet();
  const auto times = synth::poisson_arrivals_hourly(rng, profile, 4000.0,
                                                    8.0 * 3600.0,
                                                    20.0 * 3600.0);
  PoissonTestConfig cfg;
  cfg.interval_length = 3600.0;
  const auto r =
      test_poisson_arrivals(times, cfg, 8.0 * 3600.0, 20.0 * 3600.0);
  EXPECT_GE(r.n_intervals, 10u);
  EXPECT_TRUE(r.poisson) << to_string(r);
}

TEST(PoissonTest, HeavyTailedRenewalRejected) {
  rng::Rng rng(3);
  const dist::Pareto gap(2.0, 0.9);
  std::vector<double> times;
  double t = 0.0;
  while (times.size() < 4000) {
    t += gap.sample(rng);
    times.push_back(t);
  }
  PoissonTestConfig cfg;
  cfg.interval_length = 3600.0;
  const auto r = test_poisson_arrivals(times, cfg);
  ASSERT_GT(r.n_intervals, 3u);
  EXPECT_FALSE(r.consistent_exponential) << to_string(r);
}

TEST(PoissonTest, BatchedArrivalsRejected) {
  // Mailing-list-explosion structure: Poisson triggers, each followed by
  // a tight batch. Interarrivals alternate long-short-short..., which
  // fails the exponentiality test decisively.
  rng::Rng rng(4);
  std::vector<double> times;
  double t = 0.0;
  while (times.size() < 6000) {
    t += -std::log(rng.uniform01_open_below()) * 60.0;  // trigger gap
    double bt = t;
    const int batch = 1 + static_cast<int>(rng.uniform_int(8));
    for (int i = 0; i < batch; ++i) {
      times.push_back(bt);
      bt += rng.uniform(0.2, 1.2);
    }
    t = bt;
  }
  PoissonTestConfig cfg;
  cfg.interval_length = 600.0;
  const auto r = test_poisson_arrivals(times, cfg);
  ASSERT_GT(r.n_intervals, 10u);
  EXPECT_FALSE(r.poisson) << to_string(r);
}

TEST(PoissonTest, RateModulatedArrivalsShowPositiveCorrelation) {
  // Doubly-stochastic arrivals whose rate drifts slowly (relative to the
  // interarrival scale) give *consecutive gaps of similar size* — the
  // positive lag-1 correlation the paper flags with "+" for SMTP.
  rng::Rng rng(5);
  std::vector<double> times;
  double t = 0.0;
  double z = 0.0;  // AR(1) log-rate deviation, updated per arrival
  while (times.size() < 8000) {
    z = 0.95 * z + 0.35 * (rng.uniform01() - 0.5) * 2.0;
    const double rate = 0.2 * std::exp(z);
    t += -std::log(rng.uniform01_open_below()) / rate;
    times.push_back(t);
  }
  PoissonTestConfig cfg;
  cfg.interval_length = 600.0;
  const auto r = test_poisson_arrivals(times, cfg);
  ASSERT_GT(r.n_intervals, 10u);
  EXPECT_FALSE(r.poisson) << to_string(r);
  EXPECT_EQ(r.lag1_sign_bias, +1) << to_string(r);
}

TEST(PoissonTest, TenMinuteIntervalsAreMoreForgiving) {
  // A rate that drifts within the hour: 1 h intervals see a rate change,
  // 10 min intervals mostly do not.
  rng::Rng rng(5);
  std::vector<double> times;
  for (int hour = 0; hour < 12; ++hour) {
    for (int half = 0; half < 2; ++half) {
      const double rate = (half == 0 ? 40.0 : 160.0) / 1800.0;
      const double start = hour * 3600.0 + half * 1800.0;
      double t = start;
      while (true) {
        t += -std::log(rng.uniform01_open_below()) / rate;
        if (t >= start + 1800.0) break;
        times.push_back(t);
      }
    }
  }
  PoissonTestConfig hourly;
  hourly.interval_length = 3600.0;
  PoissonTestConfig tenmin;
  tenmin.interval_length = 600.0;
  const auto r_h = test_poisson_arrivals(times, hourly, 0.0, 12 * 3600.0);
  const auto r_m = test_poisson_arrivals(times, tenmin, 0.0, 12 * 3600.0);
  EXPECT_GT(r_m.frac_pass_exponential, r_h.frac_pass_exponential);
}

TEST(PoissonTest, SparseIntervalsAreSkipped) {
  const std::vector<double> times = {10.0, 20.0, 5000.0};
  PoissonTestConfig cfg;
  cfg.interval_length = 3600.0;
  const auto r = test_poisson_arrivals(times, cfg, 0.0, 7200.0);
  EXPECT_EQ(r.n_intervals, 0u);
  EXPECT_FALSE(r.poisson);
}

TEST(PoissonTest, EmptyInputIsHarmless) {
  const auto r = test_poisson_arrivals({});
  EXPECT_EQ(r.n_intervals, 0u);
}

TEST(PoissonTest, IntervalOutcomesExposeDiagnostics) {
  rng::Rng rng(6);
  const auto times = homogeneous_poisson(rng, 0.1, 7200.0);
  PoissonTestConfig cfg;
  cfg.interval_length = 3600.0;
  const auto r = test_poisson_arrivals(times, cfg, 0.0, 7200.0);
  ASSERT_EQ(r.intervals.size(), 2u);
  for (const auto& oc : r.intervals) {
    EXPECT_TRUE(oc.tested);
    EXPECT_GT(oc.n_interarrivals, 100u);
    EXPECT_GT(oc.a2_modified, 0.0);
  }
}

TEST(PoissonTest, ConfigValidation) {
  PoissonTestConfig cfg;
  cfg.interval_length = 0.0;
  EXPECT_THROW(test_poisson_arrivals(std::vector<double>{1.0, 2.0}, cfg),
               std::invalid_argument);
}

TEST(PoissonTest, ToStringMentionsVerdict) {
  rng::Rng rng(7);
  const auto times = homogeneous_poisson(rng, 0.05, 10 * 3600.0);
  const auto r = test_poisson_arrivals(times);
  const auto s = to_string(r);
  EXPECT_NE(s.find("exp"), std::string::npos);
  EXPECT_NE(s.find("indep"), std::string::npos);
}

// ------------------------------------------------ Appendix-A bit pins

// The bits of test_poisson_interval's outcome and of
// ad_test_exponential's a2 and a2_modified on seeded gap samples, taken
// before the A^2 probabilities were bucket-sorted and held unchanged
// since. A mismatch prints the computed row in the table's own form.

enum GapFamily : int { kExp, kPareto, kLogNormal, kBatched, kEqual, kZeros,
                       kPOne };

constexpr const char* kFamilyNames[] = {
    "kExp", "kPareto", "kLogNormal", "kBatched", "kEqual", "kZeros", "kPOne"};

// Arrival times at 1000 s plus the cumulative gaps: n + 1 arrivals.
//  kExp       exponential, mean 2 s (the null);
//  kPareto    Pareto, beta = 0.9;
//  kLogNormal log-normal, sigma = 1.5;
//  kBatched   half the gaps zero, the rest exponential;
//  kEqual     every gap 0.5 s, so every probability falls in one bucket;
//  kZeros     two gaps in three zero (probability +0);
//  kPOne      gaps of 1 ms but one of 1e6 s, whose probability is 1.0.
std::vector<double> pinned_arrivals(GapFamily family, std::size_t n) {
  rng::Rng rng(1000 * static_cast<std::uint64_t>(family) + n);
  const dist::Exponential expo(2.0);
  const dist::Pareto pareto(0.1, 0.9);
  const dist::LogNormal lognormal(0.0, 1.5);
  std::vector<double> t{1000.0};
  for (std::size_t i = 0; i < n; ++i) {
    double gap = 0.0;
    switch (family) {
      case kExp: gap = expo.sample(rng); break;
      case kPareto: gap = pareto.sample(rng); break;
      case kLogNormal: gap = lognormal.sample(rng); break;
      case kBatched: gap = rng.bernoulli(0.5) ? 0.0 : expo.sample(rng); break;
      case kEqual: gap = 0.5; break;
      case kZeros: gap = i % 3 == 2 ? expo.sample(rng) : 0.0; break;
      case kPOne: gap = i == n / 2 ? 1e6 : 1e-3; break;
    }
    t.push_back(t.back() + gap);
  }
  return t;
}

// Outcome flags, one bit each.
constexpr unsigned kTested = 1, kPassExp = 2, kPassIndep = 4;

struct AppendixAPin {
  GapFamily family;
  std::size_t n;         ///< interarrivals
  std::uint64_t a2;      ///< ad_test_exponential(gaps).a2 bits
  std::uint64_t a2_mod;  ///< its a2_modified bits
  std::uint64_t lag1;    ///< the outcome's lag1 bits
  unsigned flags;
};

constexpr AppendixAPin kAppendixAPins[] = {
    {kExp, 2, 0x3fe074c3f64db748, 0x3fe5649859cb6e44, 0x0000000000000000, 0},
    {kExp, 3, 0x3fdcf4b83d4515e8, 0x3fe15fa1be5ca6be, 0x0000000000000000, 0},
    {kExp, 4, 0x3fe616b429fcce88, 0x3fe966e8c9e2ba4f, 0x0000000000000000, 0},
    {kExp, 5, 0x3fd196d8e05a1dd0, 0x3fd3b330576f2ba2, 0xbfd57dcffcd0f5b1, 7},
    {kExp, 6, 0x3fe4f613f41fc878, 0x3fe70eaf8c895c85, 0xbfd197f8013ba88a, 7},
    {kExp, 7, 0x3fcb023b005b3460, 0x3fcd52e0f91290a2, 0xbfcbd381b0ff2f25, 7},
    {kExp, 8, 0x3fead1e56f644ad0, 0x3fecd4d6a48bd06c, 0xbfdc92a3a8952700, 7},
    {kExp, 9, 0x3fcd3cea0d2ce000, 0x3fcf2fe896964444, 0xbfd6172b091bdcb2, 7},
    {kExp, 10, 0x3fddb17fdd179e40, 0x3fdf7996e53ce011, 0xbfd6f43160e82462, 7},
    {kExp, 11, 0x3fd34b4f50b15d40, 0x3fd458ba0a9f1c84, 0x3fc3d7599955cf4b, 7},
    {kExp, 12, 0x3fd7fed6ced7be20, 0x3fd931fb25fc213b, 0xbfdca82f3b246f5f, 7},
    {kExp, 13, 0x3feacfc40d81ad70, 0x3fec0c8e1601c142, 0xbfa8777cb2f3305f, 7},
    {kExp, 14, 0x3fee54379c3eb760, 0x3fefa0f82a416777, 0xbfddea19ec67a325, 7},
    {kExp, 15, 0x3fc7dfc7b3d80e40, 0x3fc8d44054a34205, 0xbfc7376c93f6958b, 7},
    {kExp, 16, 0x3fcba2aa310e2d80, 0x3fccabf6f94b8269, 0xbfa528b3460e43f2, 7},
    {kExp, 17, 0x3fcda1ef7aa55c00, 0x3fceadaca31da485, 0x3f830e40f5f1db7c, 7},
    {kExp, 18, 0x3fd4eebec2b79940, 0x3fd5a15eb8241e5c, 0xbfafa8add70d0f7d, 7},
    {kExp, 19, 0x3fd7f6091b3aacc0, 0x3fd8b7bdf0f928c7, 0xbfbd72b39bb8b71f, 7},
    {kExp, 20, 0x3fd21e47f544f700, 0x3fd2a96df4f28dc5, 0x3fd6a33799a2b339, 7},
    {kExp, 21, 0x3fe4bf4bc815fa40, 0x3fe5570c1e427dbe, 0xbfd42d450265c47c, 7},
    {kExp, 22, 0x3fe71f496d1610e0, 0x3fe7c0b8cf7abd8e, 0xbf84d05208372efd, 7},
    {kExp, 23, 0x3fe17611df797f20, 0x3fe1eaae2a5024f2, 0x3fa05a83664a4e15, 7},
    {kExp, 24, 0x3fc927823ece9280, 0x3fc9c87f19fa22f6, 0xbfa4faa3aace7192, 7},
    {kExp, 25, 0x3fd07b22ed647380, 0x3fd0e0654d33a979, 0x3fa97649437d518e, 7},
    {kExp, 26, 0x3fd11993283e5e40, 0x3fd17e9885b9e655, 0x3f987a26fd065f18, 7},
    {kExp, 27, 0x3fcfc4c307b7ef80, 0x3fd03cbeb44cf1e0, 0x3fc7736806412b83, 7},
    {kExp, 28, 0x3fe092cba8467340, 0x3fe0edb66be18f51, 0xbfb304439dfd4cd5, 7},
    {kExp, 29, 0x3fc8a60d7c11f500, 0x3fc9289b01490f42, 0x3fb500cbbe381c6b, 7},
    {kExp, 30, 0x3fdcef6853b44d00, 0x3fdd838e40e5fc9f, 0xbfb45ed35f6013fd, 7},
    {kExp, 31, 0x3fe8cb97decf98e0, 0x3fe946732bcb5b6b, 0xbfc1d7c8c3755926, 7},
    {kExp, 32, 0x3fe7665edb429c00, 0x3fe7d6b0a2924220, 0xbfa4d2555f2a5a13, 7},
    {kExp, 33, 0x3fd5869d22af2a80, 0x3fd5eace89b70161, 0xbfb07964616c2668, 7},
    {kExp, 34, 0x3fe212651e9ccdc0, 0x3fe264098a120494, 0x3fc6b3e2447c5ed5, 7},
    {kExp, 35, 0x3fdc8157627e5d00, 0x3fdcfe7049d9c388, 0xbfc9ff7e3cf86553, 7},
    {kExp, 36, 0x3fd480b81e38a800, 0x3fd4d832a7422244, 0x3fc63c128596680c, 7},
    {kExp, 37, 0x3fd9e3c909875600, 0x3fda4f434d7d1397, 0xbfc0824d1714b245, 7},
    {kExp, 38, 0x3fd65159e44a1680, 0x3fd6ab8fdbc48557, 0xbfacd476931e55f1, 7},
    {kExp, 39, 0x3ff290727fa884a0, 0x3ff2d98fd45476e9, 0xbfc7cc76a79f8021, 7},
    {kExp, 40, 0x3fe3c84e149f92c0, 0x3fe4144503033f30, 0x3fc061726224c813, 7},
    {kExp, 1556, 0x3fedbdfe47623000, 0x3fedc0ede43c5a12, 0xbfa218805dde7f08, 7},
    {kExp, 4000, 0x3fe1bd3d595b4000, 0x3fe1bdebbb8f039c, 0x3f64937dedf5eb70, 7},
    {kPareto, 2, 0x3fe3c44c06a2e72c, 0x3fe9b262d56d5fb9, 0x0000000000000000, 0},
    {kPareto, 3, 0x3ff260cba6c794ac, 0x3ff60dc12e8918ce, 0x0000000000000000, 0},
    {kPareto, 4, 0x3fe3ab99dbb53740, 0x3fe69ef0efdd32bc, 0x0000000000000000, 0},
    {kPareto, 5, 0x3fdaaf2bca2cc360, 0x3fdde2e95d50dad3, 0x3fbd78898ca26592, 7},
    {kPareto, 6, 0x3ff868bbc956ed00, 0x3ffad99b5d7937e7, 0xbfd21b4e4f2c0580, 5},
    {kPareto, 7, 0x3fee059416c3ebe8, 0x3ff04c2bd1d81259, 0xbf04fcc19cf45c32, 7},
    {kPareto, 8, 0x3fdf11cced4c5180, 0x3fe0b32af2bf6bce, 0x3fc6cc1932b14f7d, 7},
    {kPareto, 9, 0x3fe41eb0d4caccc0, 0x3fe57611f40b8511, 0xbfc1e42b1f2c2cce, 7},
    {kPareto, 10, 0x402ddf3a82d7f106, 0x402faa0ff1181916, 0xbf90218d09983502, 5},
    {kPareto, 11, 0x3fe2b45901567670, 0x3fe3b987c03f4063, 0xbfcd1e1c9668f031, 7},
    {kPareto, 12, 0x3ff33b1a8f185600, 0x3ff431424973271a, 0x3fd1c1814d06e06f, 7},
    {kPareto, 13, 0x4010207d2124b6cc, 0x4010df08cff725a2, 0xbfb43be45bb2220d, 5},
    {kPareto, 14, 0x3ffc594653e97918, 0x3ffd904cffbc9f33, 0xbfb5cc2db6a4aa00, 5},
    {kPareto, 15, 0x40210c1eb9920446, 0x4021baaf505a6ad8, 0xbfb08d0f87764db7, 5},
    {kPareto, 16, 0x3ffe7955ac3d9ca0, 0x3fff9de27c4cb8e7, 0x3fb03718d8432a57, 5},
    {kPareto, 17, 0x400b1124389ca800, 0x400c05b30d6efc3d, 0x3fd038afffabec4a, 5},
    {kPareto, 18, 0x40206cb534bfcf44, 0x4020f8dd612c9a71, 0xbfb314cc2de185e8, 5},
    {kPareto, 19, 0x4016b0daf5d21238, 0x4017684af831a19e, 0xbfc1a71398bfbf7b, 5},
    {kPareto, 20, 0x4002215eb7514dd0, 0x4002ac9c70046211, 0xbfc63609df2680e4, 5},
    {kPareto, 21, 0x3ff12012d506ee70, 0x3ff19d5532e28ed9, 0xbfd0efaea15b8bd6, 7},
    {kPareto, 22, 0x401c3a07898d8dcc, 0x401cff1a5c6e8160, 0x3fb62a234327a9ee, 5},
    {kPareto, 23, 0x4010aaab214d4498, 0x401119f90e22c30c, 0x3fb3a1126dad9663, 5},
    {kPareto, 24, 0x4010580cb7b341f0, 0x4010c0a6a2b156c9, 0x3fca5ddefed03aa3, 5},
    {kPareto, 25, 0x3ff1da011652eca0, 0x3ff247af317bd396, 0xbfbab45568a731bf, 7},
    {kPareto, 26, 0x401124d273b509dc, 0x40118a1a432d66a4, 0xbfc227d7a34999dc, 5},
    {kPareto, 27, 0x401aefebef97f380, 0x401b892a115cc005, 0xbfb4ee2a4bf5e253, 5},
    {kPareto, 28, 0x401267b1b9159d88, 0x4012cca8bb38d247, 0xbfac8c9754f4c95d, 5},
    {kPareto, 29, 0x4022a69ed511f4f4, 0x40230967db3e7760, 0xbfb3f8df214096a1, 5},
    {kPareto, 30, 0x400dfb0415d45350, 0x400e94842abef8d2, 0xbfb50d7e6301955c, 5},
    {kPareto, 31, 0x40187404243e0240, 0x4018ed2d8315eb2b, 0xbf90ac3500b71a08, 5},
    {kPareto, 32, 0x40594341dd2031a0, 0x4059bc84b2df328f, 0xbfa55c37b646bfd6, 5},
    {kPareto, 33, 0x3fffc089ff931f20, 0x40002a2a5390b768, 0xbfaf4acdfd3940e0, 5},
    {kPareto, 34, 0x4032a1ad71a87f9e, 0x4032f5d929e02d8a, 0xbfa97a7f2488034c, 5},
    {kPareto, 35, 0x400a14338ffe2c50, 0x400a86a68c9c215e, 0xbf70a5a7b56ad4b2, 5},
    {kPareto, 36, 0x40120de8b7da8368, 0x40125af0dd0d16a9, 0xbfa03e6cff9f2548, 5},
    {kPareto, 37, 0x4007aaa62f847d20, 0x40080ce5c45a5b2d, 0xbfba45dd20043c60, 5},
    {kPareto, 38, 0x40277735460cdf60, 0x4027d60f0a8656c7, 0xbfb0f75032aca537, 5},
    {kPareto, 39, 0x400e26c920250310, 0x400e9d894415d3d9, 0xbf94effdb4fedce1, 5},
    {kPareto, 40, 0x40308b198e5925d4, 0x4030caa056e22a3c, 0xbfaa33657a793949, 5},
    {kPareto, 1556, 0x4081254355567f64, 0x408126f49e3075c4, 0x3f8bc4bf66ff0258, 5},
    {kPareto, 4000, 0x4094b4353f0cb3f0, 0x4094b500c636daee, 0x3f69cc1f451929ee, 5},
    {kLogNormal, 2, 0x3fdfcf8ffe3786a8, 0x3fe4ad50cba41787, 0x0000000000000000, 0},
    {kLogNormal, 3, 0x3fd41f0393073a88, 0x3fd825377d3bdfd6, 0x0000000000000000, 0},
    {kLogNormal, 4, 0x3feb32c299ac9f90, 0x3fef472c97201de5, 0x0000000000000000, 0},
    {kLogNormal, 5, 0x3ffda031c5282c54, 0x400097261c7ce5a0, 0xbfb308ba7c0da88b, 5},
    {kLogNormal, 6, 0x3fe08ffcdf60a478, 0x3fe237fc8f50b4eb, 0xbfd5a04c4f6814ad, 7},
    {kLogNormal, 7, 0x3fd9467419216ad0, 0x3fdb711055cc8298, 0xbfd797afa13770b4, 7},
    {kLogNormal, 8, 0x3fe7a23215702790, 0x3fe967f5d70bc421, 0xbfd693d2c9e6e4ec, 7},
    {kLogNormal, 9, 0x400fdd43a10e24d0, 0x4010fe8a78078b1a, 0xbfbf3e2e9c25400c, 5},
    {kLogNormal, 10, 0x3ff947e9ec029c98, 0x3ffacc3a84692b1c, 0xbfd05bf38d521c22, 5},
    {kLogNormal, 11, 0x4010e1ccd38620f2, 0x4011cd88df0fc5a6, 0xbfd3925743e03afe, 5},
    {kLogNormal, 12, 0x3ff4d4709094edb8, 0x3ff5df0fcb02c668, 0xbfcbfbdfa696a678, 5},
    {kLogNormal, 13, 0x3fd57896aec62e40, 0x3fd67646fdbba29a, 0xbfce1b84e121657e, 7},
    {kLogNormal, 14, 0x4016126de0572678, 0x4017049728205efa, 0xbfb80b88ffa5e47d, 5},
    {kLogNormal, 15, 0x3fe2d2c777c8c0d0, 0x3fe39387c4416c5e, 0xbf7d6c7402923d19, 7},
    {kLogNormal, 16, 0x4008c598a8c0f238, 0x4009b367fbe1c81b, 0xbfa13c54985d10ce, 5},
    {kLogNormal, 17, 0x4000d1d785feea38, 0x400169d0124122ad, 0x3fcfb850d5a7c8e1, 5},
    {kLogNormal, 18, 0x3feef15b6596cba0, 0x3feff966fa0ac159, 0xbfd1415973aba74e, 7},
    {kLogNormal, 19, 0x4008be2400373c58, 0x4009862a86f59c91, 0xbfc1891892e37920, 5},
    {kLogNormal, 20, 0x40083c3c28d82ed0, 0x4008f65caf30969e, 0xbfc153545373217b, 5},
    {kLogNormal, 21, 0x3fdc718abe50cd80, 0x3fdd41960594f0a0, 0x3fbdfb53242e2c36, 7},
    {kLogNormal, 22, 0x3fe0cb391a23ff80, 0x3fe140797eed2012, 0xbfb818f8a3bc37b2, 7},
    {kLogNormal, 23, 0x4009079628ab0d50, 0x4009aebdb18537f5, 0xbfbe10f891f34962, 5},
    {kLogNormal, 24, 0x3ff30a562b4eeb70, 0x3ff38431ec6417b9, 0x3fa5ec5a6f769d5a, 7},
    {kLogNormal, 25, 0x3fe4c8eb1af05060, 0x3fe5489ed3e7bed9, 0x3f98b65cbf6a05c6, 7},
    {kLogNormal, 26, 0x3ff4db8077228ca0, 0x3ff556b8996454cb, 0x3fbbdcb446df5f58, 5},
    {kLogNormal, 27, 0x4015898176e56bf8, 0x401604072f952fca, 0xbfb7ba3bde6dfdbb, 5},
    {kLogNormal, 28, 0x4034610d2f008d70, 0x4034d0d870026495, 0xbf9b34dd46b46146, 5},
    {kLogNormal, 29, 0x401c66b6c4b5d840, 0x401cfd247b18f1e9, 0xbfa166f5343cabee, 5},
    {kLogNormal, 30, 0x3feb301852fa5e60, 0x3febbb4c02b7b22f, 0x3fc1a297dc0cce59, 7},
    {kLogNormal, 31, 0x401bede66d69e8e0, 0x401c7849077ad2f4, 0xbf87ee46977b1acd, 5},
    {kLogNormal, 32, 0x4021c74437650ce0, 0x40221c9a4ba2251e, 0xbfb861776241f12e, 5},
    {kLogNormal, 33, 0x40018e32dbb83cb0, 0x4001dfe94f6c75a5, 0xbfb9794ef7b21fee, 5},
    {kLogNormal, 34, 0x3ffe04175eab9800, 0x3ffe8bb161d8c95d, 0x3fc8dadfd1f5fe37, 5},
    {kLogNormal, 35, 0x40007a2e00992300, 0x4000c27dc905166f, 0xbfc53d4eb58a1ad7, 5},
    {kLogNormal, 36, 0x4019f2000301f860, 0x401a60b3364200c8, 0x3fb9292ac577d3dd, 5},
    {kLogNormal, 37, 0x4033984a7ffdf472, 0x4033e9a2e2eeb339, 0xbfa0ffe387a90a62, 5},
    {kLogNormal, 38, 0x401fcf0cee8a8ce0, 0x402027cfffe402d6, 0xbfa7bba4b80be06b, 5},
    {kLogNormal, 39, 0x401894cf795a4408, 0x4018f59f7747f64f, 0xbfcd28c89e7f344d, 5},
    {kLogNormal, 40, 0x3ff5476e1dca5e20, 0x3ff599243f847174, 0xbfcbcd9e95b0b089, 5},
    {kLogNormal, 1556, 0x4065d9a59d5444a8, 0x4065dbcdca1b8a2d, 0x3f695eeba8703d8f, 5},
    {kLogNormal, 4000, 0x4080ab6987c06df8, 0x4080ac0d661eef6c, 0x3f7da0d2afe50374, 5},
    {kBatched, 2, 0x3fd1d11ad4b96690, 0x3fd7296fae243888, 0x0000000000000000, 0},
    {kBatched, 3, 0x40417696ca9ba821, 0x4044f4b4f3213027, 0x0000000000000000, 0},
    {kBatched, 4, 0x404d99dff44ce120, 0x405105472c790172, 0x0000000000000000, 0},
    {kBatched, 5, 0x4034afeb82cb2816, 0x40372b6e2c16bc42, 0xbfdef91f108059d5, 5},
    {kBatched, 6, 0x4030f756e2aba2e0, 0x4032a9ac5fbcccc4, 0xbfd71f7d043a9971, 5},
    {kBatched, 7, 0x404deb2abec98f3e, 0x40503dd560418846, 0x3fd0076aaad03298, 5},
    {kBatched, 8, 0x40545f93b02ca470, 0x4055e6bec3c9972b, 0x3fc4323618cc9b80, 5},
    {kBatched, 9, 0x405242fa2843a853, 0x40537aa46f3719f2, 0xbfb0ac2ccde64e4d, 5},
    {kBatched, 10, 0x4024dabb5732befa, 0x40261b0e42d482c2, 0xbfc43c724ad663f9, 5},
    {kBatched, 11, 0x405529e85b775990, 0x4056516e0cac67c1, 0xbfb4fb2779bfbf57, 5},
    {kBatched, 12, 0x405a79884da52eec, 0x405bcc68b7ed7145, 0xbfc531f59c3a74c7, 5},
    {kBatched, 13, 0x404883096930ff94, 0x4049a4a7623b2302, 0xbfc1ec5701f909d9, 5},
    {kBatched, 14, 0x4050f981e4d68ed8, 0x4051b3be51636915, 0x3fc62d7054b336fb, 5},
    {kBatched, 15, 0x406f98dc9a510c72, 0x40706e3546012f6f, 0x3fcbf63a98015525, 5},
    {kBatched, 16, 0x40608232f74cec45, 0x406120ae7a2c9b88, 0x3fc7ac18bff9b2a0, 5},
    {kBatched, 17, 0x4058225663c2fee7, 0x4058fc657c5d7453, 0x3fb487e4e70a3960, 5},
    {kBatched, 18, 0x406a10c4c9895120, 0x406aef31bf300708, 0xbfd9b9d6a78ff48f, 5},
    {kBatched, 19, 0x40613c42316abbde, 0x4061c797d1f78936, 0xbfc4163a951db5ab, 5},
    {kBatched, 20, 0x404fc8c2a96b2b66, 0x40505e6e7da68d64, 0xbfcfa4f1b7d815da, 5},
    {kBatched, 21, 0x4062ab6b4fd67fe5, 0x406333f9596ee9f2, 0xbfb06a54500ecae0, 5},
    {kBatched, 22, 0x405d15dbce740a5e, 0x405de0ed7002d774, 0x3fc2be8ad7f93511, 5},
    {kBatched, 23, 0x404c89128fcdcf22, 0x404d47a3bdd9db37, 0x3fc32a4df6ddb3e8, 5},
    {kBatched, 24, 0x4063849a1ef79fff, 0x406401845fbdd0cb, 0xbfbd6fba4316fbd9, 5},
    {kBatched, 25, 0x406d2c1035cc83b2, 0x406ddf4bfdbefda4, 0xbfc0c4e64487cbe4, 5},
    {kBatched, 26, 0x4064f805204d5f1e, 0x406573e5bc9ded20, 0xbfc01bf2a41dfe9f, 5},
    {kBatched, 27, 0x4067c535904bae9e, 0x40684c6fa491a16e, 0xbfa26e44b8e2ef50, 5},
    {kBatched, 28, 0x405bf45319703504, 0x405c8daca6c88dec, 0xbfc78dbfa02607ea, 5},
    {kBatched, 29, 0x405a9027623752d2, 0x405b1cd8c00e1882, 0x3faae04264bd7b35, 5},
    {kBatched, 30, 0x4055fc96c32446bf, 0x40566d2923345ca4, 0x3fcdd60bfe2e8bbb, 5},
    {kBatched, 31, 0x405d99226123c88c, 0x405e2bc9db966ff0, 0xbfb60886019fb0dd, 5},
    {kBatched, 32, 0x405a0b516712d7a4, 0x405a88548767fee3, 0xbfbd74c66c97d56f, 5},
    {kBatched, 33, 0x4071fe2432d142dc, 0x407251e3b16a02e9, 0xbfb19b85d6765967, 5},
    {kBatched, 34, 0x406f1ea7fc4c20e2, 0x406fab3e86c5f146, 0x3fc7850c84a3e98b, 5},
    {kBatched, 35, 0x406e1ec69c21c934, 0x406ea2f5e67d0ff1, 0xbfcbe9721c0d9aad, 5},
    {kBatched, 36, 0x4069c7e16fe2d7eb, 0x406a35e0ed7bf51d, 0x3fa17a213c2b9e36, 5},
    {kBatched, 37, 0x4066dd19d8aaee72, 0x40673c041ffc9437, 0xbfc6517583b67790, 5},
    {kBatched, 38, 0x4072ba316c0789c0, 0x407305e40e126fa2, 0x3f861e9c12136993, 5},
    {kBatched, 39, 0x406290a0ac1959f5, 0x4062d9beb69fa62c, 0x3fb5f976f843d310, 5},
    {kBatched, 40, 0x4071fce404d9017a, 0x407241f6cc99b36b, 0xbfc7d1a02d2523fb, 5},
    {kBatched, 1556, 0x40c35cf742dfa02d, 0x40c35ee0961da38f, 0x3f824c506a4b9446, 5},
    {kBatched, 4000, 0x40db1729a9c349ff, 0x40db1833f92fcc61, 0x3f7eeb4c793d75d4, 5},
    {kEqual, 40, 0x403258d55f8505c4, 0x40329f4936b660bb, 0x0000000000000000, 5},
    {kEqual, 4000, 0x409caacd653fd8f8, 0x409cabe7349c9e65, 0x0000000000000000, 5},
    {kZeros, 40, 0x407dbb58dad56c9e, 0x407e2d846d79e7d8, 0xbfcdca083cde434c, 5},
    {kZeros, 1556, 0x40d1bbf7e50f503c, 0x40d1bdb80e60c248, 0xbfc932b3be494019, 1},
    {kPOne, 100, 0x4097200b25c870ca, 0x4097439055a02bd5, 0xbf84e4cbf8f76a34, 5},
};

// Every pinned case, computed: its family and n, then what the two
// tests return. The interval test's a2_modified must equal the A^2
// test's whenever it tests at all; a mismatch is reported here.
std::vector<AppendixAPin> computed_pins() {
  std::vector<std::pair<GapFamily, std::size_t>> cases;
  for (const GapFamily f : {kExp, kPareto, kLogNormal, kBatched}) {
    for (std::size_t n = 2; n <= 40; ++n) cases.emplace_back(f, n);
    cases.emplace_back(f, 1556);
    cases.emplace_back(f, 4000);
  }
  cases.emplace_back(kEqual, 40);
  cases.emplace_back(kEqual, 4000);
  cases.emplace_back(kZeros, 40);
  cases.emplace_back(kZeros, 1556);
  cases.emplace_back(kPOne, 100);

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::vector<AppendixAPin> out;
  for (const auto& [family, n] : cases) {
    AppendixAPin got{family, n, 0, 0, 0, 0};
    const std::vector<double> t = pinned_arrivals(family, n);
    std::vector<double> gaps;
    for (std::size_t i = 1; i < t.size(); ++i) gaps.push_back(t[i] - t[i - 1]);
    const AdResult ad = ad_test_exponential(gaps);
    got.a2 = bits(ad.a2);
    got.a2_mod = bits(ad.a2_modified);
    const IntervalOutcome oc = test_poisson_interval(t, t.front());
    got.lag1 = bits(oc.lag1);
    got.flags |= (oc.tested ? kTested : 0) |
                 (oc.pass_exponential ? kPassExp : 0) |
                 (oc.pass_independence ? kPassIndep : 0);
    EXPECT_EQ(oc.n_interarrivals, n);
    EXPECT_EQ(bits(oc.a2_modified), oc.tested ? got.a2_mod : 0u)
        << kFamilyNames[family] << " n=" << n;
    out.push_back(got);
  }
  return out;
}

// One pin as a row of kAppendixAPins.
std::string pin_row(const AppendixAPin& p) {
  char row[128];
  std::snprintf(row, sizeof row,
                "{%s, %zu, 0x%016llx, 0x%016llx, 0x%016llx, %u},",
                kFamilyNames[p.family], p.n,
                static_cast<unsigned long long>(p.a2),
                static_cast<unsigned long long>(p.a2_mod),
                static_cast<unsigned long long>(p.lag1), p.flags);
  return row;
}

TEST(AppendixAPins, IntervalOutcomesKeepEveryBit) {
  const std::vector<AppendixAPin> got = computed_pins();
  ASSERT_EQ(got.size(), std::size(kAppendixAPins));
  for (std::size_t k = 0; k < got.size(); ++k)
    EXPECT_EQ(pin_row(got[k]), pin_row(kAppendixAPins[k]));
}

}  // namespace
}  // namespace wan::stats
