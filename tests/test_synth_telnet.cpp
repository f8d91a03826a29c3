#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/rng/rng.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"
#include "src/synth/synthesizer.hpp"
#include "src/synth/telnet_source.hpp"

namespace wan::synth {
namespace {

TelnetConfig flat_config(double per_day = 24000.0) {
  TelnetConfig c;
  c.profile = DiurnalProfile::flat();
  c.conns_per_day = per_day;
  return c;
}

TEST(TelnetSource, SizesClampedAndMedianNear100) {
  const TelnetSource src(flat_config());
  rng::Rng rng(1);
  std::vector<double> sizes(20000);
  for (double& s : sizes)
    s = static_cast<double>(src.sample_size_packets(rng));
  // log2-normal median is 100 packets (Section V).
  EXPECT_NEAR(stats::median(sizes), 100.0, 12.0);
  for (double s : sizes) {
    EXPECT_GE(s, 2.0);
    EXPECT_LE(s, 20000.0);
  }
}

TEST(TelnetSource, TcplibTimesAreRenewalFromStart) {
  const TelnetSource src(flat_config());
  rng::Rng rng(2);
  const auto t = src.generate_packet_times(rng, 100.0, 50,
                                           InterarrivalScheme::kTcplib);
  ASSERT_EQ(t.size(), 50u);
  EXPECT_DOUBLE_EQ(t.front(), 100.0);
  for (std::size_t i = 1; i < t.size(); ++i) EXPECT_GT(t[i], t[i - 1]);
}

TEST(TelnetSource, VarExpSpreadsOverDuration) {
  const TelnetSource src(flat_config());
  rng::Rng rng(3);
  const auto t = src.generate_packet_times(rng, 0.0, 200,
                                           InterarrivalScheme::kVarExp,
                                           500.0);
  ASSERT_EQ(t.size(), 200u);
  EXPECT_GE(t.front(), 0.0);
  EXPECT_LT(t.back(), 500.0);
}

TEST(TelnetSource, ExponentialSchemeHasExpectedMeanGap) {
  const TelnetSource src(flat_config());
  rng::Rng rng(4);
  const auto t = src.generate_packet_times(
      rng, 0.0, 20000, InterarrivalScheme::kExponential);
  const auto gaps = stats::interarrivals(t);
  EXPECT_NEAR(stats::mean(gaps), 1.1, 0.05);
}

TEST(TelnetSource, GenerateConnectionsRespectsWindowAndRate) {
  const TelnetSource src(flat_config(2400.0));
  rng::Rng rng(5);
  const auto conns = src.generate_connections(rng, 0.0, 7200.0);
  // 2400/day = 100/h -> ~200 connections over two hours.
  EXPECT_NEAR(static_cast<double>(conns.size()), 200.0, 60.0);
  for (const auto& c : conns) {
    EXPECT_GE(c.start, 0.0);
    EXPECT_LT(c.start, 7200.0);
    EXPECT_GE(c.packet_times.size(), 2u);
    EXPECT_DOUBLE_EQ(c.packet_times.front(), c.start);
  }
}

TEST(TelnetSource, SkeletonRoundtripPreservesStartAndSize) {
  const TelnetSource src(flat_config());
  rng::Rng rng(6);
  const auto conns = src.generate_connections(rng, 0.0, 1800.0);
  const auto sk = TelnetSource::skeletons_of(conns);
  ASSERT_EQ(sk.size(), conns.size());
  const auto resynth =
      src.generate_from_skeletons(rng, sk, InterarrivalScheme::kExponential);
  ASSERT_EQ(resynth.size(), conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    EXPECT_DOUBLE_EQ(resynth[i].start, conns[i].start);
    EXPECT_EQ(resynth[i].packet_times.size(), conns[i].packet_times.size());
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The Tcplib walk against the packet times it skips: the skeletons are
// skeletons_of(generate_connections(...)) field for field, durations by
// their bits, and the Rng ends where generate_connections leaves it, so
// the draws that follow are equal too. Returns the skeletons.
std::vector<ConnSkeleton> expect_walk_matches_connections(
    const TelnetConfig& cfg, std::uint64_t seed, double t1) {
  const TelnetSource src(cfg);
  rng::Rng walk_rng(seed);
  rng::Rng full_rng(seed);
  const auto walked = src.generate_skeletons(walk_rng, 0.0, t1);
  const auto full = TelnetSource::skeletons_of(src.generate_connections(
      full_rng, 0.0, t1, InterarrivalScheme::kTcplib));
  EXPECT_FALSE(walked.empty());
  EXPECT_EQ(walked.size(), full.size());
  for (std::size_t i = 0; i < std::min(walked.size(), full.size()); ++i) {
    EXPECT_EQ(bits(walked[i].start), bits(full[i].start)) << i;
    EXPECT_EQ(walked[i].packets, full[i].packets) << i;
    EXPECT_EQ(bits(walked[i].duration), bits(full[i].duration)) << i;
  }
  for (int k = 0; k < 4; ++k)
    EXPECT_EQ(walk_rng.next_u64(), full_rng.next_u64()) << k;
  return walked;
}

TEST(TelnetWalk, TelnetDefaultsMatchGeneratedConnections) {
  expect_walk_matches_connections(TelnetConfig{}, 11, 6.0 * 3600.0);
}

TEST(TelnetWalk, RloginDatasetConfigMatchesGeneratedConnections) {
  const ConnDatasetConfig dataset;
  ASSERT_EQ(dataset.rlogin.protocol, trace::Protocol::kRlogin);
  expect_walk_matches_connections(dataset.rlogin, 12, 6.0 * 3600.0);
}

TEST(TelnetWalk, BindingSizeClampMatchesGeneratedConnections) {
  TelnetConfig cfg = flat_config(4800.0);
  cfg.max_packets = 40;  // below the 100-packet median: the clamp binds
  const auto walked = expect_walk_matches_connections(cfg, 13, 3600.0);
  std::size_t clamped = 0;
  for (const ConnSkeleton& sk : walked) {
    EXPECT_LE(sk.packets, 40u);
    clamped += sk.packets == 40 ? 1 : 0;
  }
  EXPECT_GT(clamped, walked.size() / 2);
}

TEST(TelnetWalk, LastTimeOfEverySizeTakesThePacketTimesDraws) {
  const TelnetSource src(flat_config());
  for (std::size_t n : {0u, 1u, 2u, 3u, 57u}) {
    rng::Rng walk_rng(20 + n);
    rng::Rng full_rng(20 + n);
    const double last = src.tcplib_last_packet_time(walk_rng, 5.0, n);
    const auto times = src.generate_packet_times(full_rng, 5.0, n,
                                                 InterarrivalScheme::kTcplib);
    EXPECT_EQ(bits(last), bits(times.empty() ? 5.0 : times.back())) << n;
    EXPECT_EQ(walk_rng.next_u64(), full_rng.next_u64()) << n;
  }
}

TEST(TelnetSource, PacketTraceClipsAndTagsProtocol) {
  TelnetConfig cfg = flat_config();
  cfg.protocol = trace::Protocol::kRlogin;
  const TelnetSource src(cfg);
  rng::Rng rng(7);
  const auto conns = src.generate_connections(rng, 0.0, 600.0);
  const auto pt = src.to_packet_trace(conns, 0.0, 600.0);
  EXPECT_GT(pt.size(), 0u);
  double prev = -1.0;
  for (const auto& r : pt.records()) {
    EXPECT_EQ(r.protocol, trace::Protocol::kRlogin);
    EXPECT_TRUE(r.from_originator);
    EXPECT_GE(r.payload_bytes, 1);
    EXPECT_GE(r.time, prev);
    EXPECT_LT(r.time, 600.0);
    prev = r.time;
  }
}

TEST(TelnetSource, ConnRecordsHaveRealisticBytes) {
  const TelnetSource src(flat_config());
  const HostModel hosts(10, 50);
  rng::Rng rng(8);
  const auto conns = src.generate_connections(rng, 0.0, 1800.0);
  trace::ConnTrace out("t", 0.0, 1800.0);
  src.append_conn_records(rng, TelnetSource::skeletons_of(conns), hosts, out);
  ASSERT_EQ(out.size(), conns.size());
  for (const auto& r : out.records()) {
    EXPECT_EQ(r.protocol, trace::Protocol::kTelnet);
    EXPECT_GT(r.bytes_resp, r.bytes_orig);  // echo + command output
  }
}

TEST(TelnetSource, SectionIVMultiplexedVarianceContrast) {
  // The paper's Section IV experiment: 100 multiplexed connections over
  // 10 minutes; with 1 s bins the Tcplib scheme's count variance dwarfs
  // the exponential scheme's at equal mean (paper: 240 vs 97 at mean 92).
  TelnetConfig cfg = flat_config();
  const TelnetSource src(cfg);
  rng::Rng rng(9);

  std::vector<double> tcplib_times, exp_times;
  for (int c = 0; c < 100; ++c) {
    // Long-lived connections active for the whole window.
    const auto t = src.generate_packet_times(rng, 0.0, 700,
                                             InterarrivalScheme::kTcplib);
    for (double v : t)
      if (v < 600.0) tcplib_times.push_back(v);
    const auto e = src.generate_packet_times(
        rng, 0.0, 700, InterarrivalScheme::kExponential);
    for (double v : e)
      if (v < 600.0) exp_times.push_back(v);
  }
  const auto ct = stats::bin_counts(tcplib_times, 0.0, 600.0, 1.0);
  const auto ce = stats::bin_counts(exp_times, 0.0, 600.0, 1.0);
  const double var_t = stats::variance(ct);
  const double var_e = stats::variance(ce);
  EXPECT_GT(var_t, 1.5 * var_e)
      << "tcplib var " << var_t << " exp var " << var_e;
}

TEST(TelnetSource, ConfigValidation) {
  TelnetConfig bad = flat_config();
  bad.exp_mean = 0.0;
  EXPECT_THROW(TelnetSource{bad}, std::invalid_argument);
  TelnetConfig bad2 = flat_config();
  bad2.min_packets = 1;
  EXPECT_THROW(TelnetSource{bad2}, std::invalid_argument);
}

}  // namespace
}  // namespace wan::synth
