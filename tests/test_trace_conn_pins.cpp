// Golden pins for the connection analyses: periodic-stream detection
// and removal (the Section III weather-map preprocessing), the Fig. 2
// Poisson report at both interval lengths, FTPDATA bursts and
// intra-session spacings under both session groupings (Section VI),
// and per-protocol arrivals. Inputs are one synthesized LBL-like day
// and a hand-built fixture that is unsorted, has equal starts inside
// sessions, two sessions on one host pair, one periodic stream and one
// protocol too sparse to test. Doubles are pinned by their bits (hex,
// or inside FNV-1a digests), so a change to any output bit fails here.
//
// Equal starts inside a session keep their trace order (DESIGN.md
// §16); only intra_session_spacings can see that order. The fixture's
// sessions hold 16 records or fewer.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/poisson_report.hpp"
#include "src/synth/synthesizer.hpp"
#include "src/trace/burst.hpp"
#include "src/trace/conn_trace.hpp"
#include "src/trace/periodic.hpp"

namespace wan {
namespace {

using trace::ConnRecord;
using trace::ConnTrace;
using trace::Protocol;
using trace::SessionGrouping;

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void u(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  void d(double v) { u(std::bit_cast<std::uint64_t>(v)); }
};

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string bits(double v) { return hex(std::bit_cast<std::uint64_t>(v)); }

std::string describe(const std::vector<trace::PeriodicStream>& found) {
  std::string out;
  for (const trace::PeriodicStream& s : found) {
    out += std::to_string(s.src_host) + ">" + std::to_string(s.dst_host) +
           " " + std::string(trace::to_string(s.protocol)) +
           " n=" + std::to_string(s.connections) +
           " period=" + bits(s.mean_period) + " cv=" + bits(s.cv) + "\n";
  }
  return out;
}

std::string describe(const ConnTrace& tr) {
  Fnv f;
  for (const ConnRecord& r : tr.records()) {
    f.d(r.start);
    f.d(r.duration);
    f.u(static_cast<std::uint64_t>(r.protocol));
    f.u(r.src_host);
    f.u(r.dst_host);
    f.u(r.bytes_orig);
    f.u(r.bytes_resp);
    f.u(r.session_id);
  }
  return tr.name() + " [" + bits(tr.t_begin()) + "," + bits(tr.t_end()) +
         "] n=" + std::to_string(tr.size()) + " " + hex(f.h);
}

std::string describe(const std::vector<core::ProtocolVerdict>& rows) {
  std::string out;
  for (const core::ProtocolVerdict& v : rows) {
    const stats::PoissonTestResult& r = v.result;
    Fnv f;
    f.d(r.frac_pass_exponential);
    f.d(r.frac_pass_independence);
    f.u(r.consistent_exponential);
    f.u(r.consistent_independence);
    f.u(r.poisson);
    f.u(static_cast<std::uint64_t>(r.lag1_sign_bias));
    for (const stats::IntervalOutcome& oc : r.intervals) {
      f.d(oc.start);
      f.u(oc.n_interarrivals);
      f.u(oc.tested);
      f.u(oc.pass_exponential);
      f.u(oc.pass_independence);
      f.d(oc.a2_modified);
      f.d(oc.lag1);
    }
    out += v.trace_name + " " + v.label +
           " n=" + std::to_string(r.n_intervals) +
           " exp=" + std::to_string(r.n_pass_exponential) +
           " indep=" + std::to_string(r.n_pass_independence) +
           " pos=" + std::to_string(r.n_positive_lag1) +
           " slots=" + std::to_string(r.intervals.size()) + " " + hex(f.h) +
           "\n";
  }
  return out;
}

std::string describe(const std::vector<trace::FtpBurst>& bursts) {
  Fnv f;
  for (const trace::FtpBurst& b : bursts) {
    f.d(b.start);
    f.d(b.end);
    f.u(b.bytes);
    f.u(b.n_connections);
    f.u(b.session_id);
  }
  return "n=" + std::to_string(bursts.size()) + " " + hex(f.h);
}

std::string describe(const std::vector<double>& values) {
  Fnv f;
  for (double v : values) f.d(v);
  return "n=" + std::to_string(values.size()) + " " + hex(f.h);
}

std::string describe_arrivals(const ConnTrace& tr) {
  std::string out;
  for (Protocol p : trace::kAllProtocols) {
    out += std::string(trace::to_string(p)) + " " +
           describe(tr.arrival_times(p)) + "\n";
  }
  return out;
}

struct Pins {
  const char* periodic;
  const char* deperiodic;
  const char* report_hour;
  const char* table_hour;
  const char* report_ten_min;
  const char* table_ten_min;
  const char* bursts_session;
  const char* bursts_pair;
  const char* spacings_session;
  const char* spacings_pair;
  const char* arrivals;
};

// Runs every analysis the way `wantraffic_analyze conn --deperiodic`
// chains them: detect and remove periodic streams, then report, burst
// and space the rest. Arrivals are taken from the input itself. The
// removal is pinned on a copy and on a trace moved in, and the hourly
// report with its bursts found inside and handed in.
void expect_pins(const ConnTrace& tr, const Pins& pin) {
  EXPECT_EQ(describe(trace::detect_periodic_streams(tr)), pin.periodic);
  const ConnTrace kept = trace::remove_periodic_streams(tr);
  EXPECT_EQ(describe(kept), pin.deperiodic);
  ConnTrace moved = tr;
  EXPECT_EQ(describe(trace::remove_periodic_streams(std::move(moved))),
            pin.deperiodic);

  core::PoissonReportConfig hour;
  const auto hourly = core::poisson_report(kept, hour);
  EXPECT_EQ(describe(hourly), pin.report_hour);
  EXPECT_EQ(core::render_poisson_report(hourly), pin.table_hour);
  EXPECT_EQ(describe(core::poisson_report(
                kept, hour, trace::find_ftp_bursts(kept, hour.burst_gap))),
            pin.report_hour);
  core::PoissonReportConfig ten_min;
  ten_min.interval_length = 600.0;
  const auto fine = core::poisson_report(kept, ten_min);
  EXPECT_EQ(describe(fine), pin.report_ten_min);
  EXPECT_EQ(core::render_poisson_report(fine), pin.table_ten_min);

  EXPECT_EQ(describe(trace::find_ftp_bursts(kept, 4.0,
                                            SessionGrouping::kSessionId)),
            pin.bursts_session);
  EXPECT_EQ(describe(trace::find_ftp_bursts(kept, 4.0,
                                            SessionGrouping::kHostPair)),
            pin.bursts_pair);
  EXPECT_EQ(describe(trace::intra_session_spacings(
                kept, SessionGrouping::kSessionId)),
            pin.spacings_session);
  EXPECT_EQ(describe(trace::intra_session_spacings(
                kept, SessionGrouping::kHostPair)),
            pin.spacings_pair);
  EXPECT_EQ(describe_arrivals(tr), pin.arrivals);
}

ConnRecord rec(double start, double duration, Protocol p, std::uint32_t src,
               std::uint32_t dst, std::uint64_t bytes,
               std::uint64_t session = 0) {
  ConnRecord r;
  r.start = start;
  r.duration = duration;
  r.protocol = p;
  r.src_host = src;
  r.dst_host = dst;
  r.bytes_orig = bytes / 4;
  r.bytes_resp = bytes;
  r.session_id = session;
  return r;
}

// One hour, listed out of time order. TELNET: a nine-connection stream
// from 1 to 2 with irregular gaps plus five one-offs. FTPDATA: sessions
// 7 and 8 share the host pair 10 > 20, session 9 runs on 11 > 21, and
// three connections of session 7 (two of 9, two of 8) start together.
// SMTP: a timer-driven stream 30 > 40 every ~300 s and a two-connection
// stream 30 > 41. NNTP: three connections, too few for any test.
ConnTrace fixture() {
  constexpr Protocol T = Protocol::kTelnet, D = Protocol::kFtpData,
                     S = Protocol::kSmtp, N = Protocol::kNntp;
  std::vector<ConnRecord> r = {
      rec(1500.0, 30.0, T, 1, 2, 900),     rec(605.1, 2.0, S, 30, 40, 4000),
      rec(100.0, 2.0, D, 10, 20, 500, 7),  rec(3300.0, 12.0, T, 1, 4, 80),
      rec(202.0, 0.75, D, 11, 21, 60, 9),  rec(40.0, 300.0, T, 1, 2, 1200),
      rec(1000.0, 5.0, N, 50, 60, 7000),   rec(2705.0, 2.0, S, 30, 40, 4100),
      rec(100.0, 1.0, D, 10, 20, 700, 7),  rec(120.0, 4.0, D, 10, 20, 90, 8),
      rec(95.0, 40.0, T, 1, 2, 300),       rec(5.0, 2.0, S, 30, 40, 3900),
      rec(2100.0, 7.5, T, 7, 8, 420),      rec(590.0, 1.0, D, 11, 21, 75, 9),
      rec(400.0, 8.0, T, 1, 2, 50),        rec(150.0, 3.0, D, 10, 20, 810, 7),
      rec(1205.0, 2.0, S, 30, 40, 4050),   rec(700.0, 66.0, T, 3, 4, 640),
      rec(120.0, 2.0, D, 10, 20, 95, 8),   rec(3550.0, 20.0, T, 1, 2, 720),
      rec(1804.8, 2.0, S, 30, 40, 3950),   rec(100.0, 0.5, D, 10, 20, 300, 7),
      rec(410.0, 1.0, T, 1, 2, 10),        rec(2000.0, 5.0, N, 50, 60, 7100),
      rec(200.0, 1.0, D, 11, 21, 66, 9),   rec(905.0, 2.0, S, 30, 41, 100),
      rec(1730.0, 90.0, T, 1, 2, 2500),    rec(304.9, 2.0, S, 30, 40, 4020),
      rec(101.0, 1.0, D, 10, 20, 44, 8),   rec(2405.0, 2.0, S, 30, 40, 4010),
      rec(1200.0, 3.0, T, 5, 6, 33),       rec(202.0, 0.25, D, 11, 21, 61, 9),
      rec(2600.0, 4.0, T, 1, 2, 15),       rec(1100.0, 5.0, N, 50, 60, 7050),
      rec(103.0, 1.0, D, 10, 20, 1000, 7), rec(904.9, 2.0, S, 30, 40, 3990),
      rec(2800.0, 9.0, T, 9, 2, 77),       rec(1505.2, 2.0, S, 30, 40, 4030),
      rec(300.0, 1.0, D, 10, 20, 55, 8),   rec(3000.0, 6.0, T, 1, 2, 64),
      rec(2105.0, 2.0, S, 30, 40, 3980),   rec(3305.0, 2.0, S, 30, 41, 100),
  };
  return ConnTrace("fixture", 0.0, 3600.0, std::move(r));
}

const Pins kFixturePins = {
    /*periodic=*/"30>40 SMTP n=10 period=4072c00000000000 cv=3f468484fc28e17c\n",
    /*deperiodic=*/"fixture/deperiodic [0000000000000000,40ac200000000000] n=32 0734e4784ca16154",
    /*report_hour=*/"fixture/deperiodic TELNET n=1 exp=0 indep=1 pos=1 slots=1 e98c274c82f8e346\n"
        "fixture/deperiodic FTPDATA n=1 exp=0 indep=1 pos=1 slots=1 6605ae645e335a56\n",
    /*table_hour=*/"trace               protocol  exp-pass  indep-pass  intervals  verdict  corr  \n"
        "------------------------------------------------------------------------------\n"
        "fixture/deperiodic  TELNET    0%        100%        1          POISSON        \n"
        "fixture/deperiodic  FTPDATA   0%        100%        1          POISSON        \n",
    /*report_ten_min=*/"fixture/deperiodic FTPDATA n=1 exp=0 indep=1 pos=1 slots=6 ff4bfad722a4b3d7\n",
    /*table_ten_min=*/"trace               protocol  exp-pass  indep-pass  intervals  verdict  corr  \n"
        "------------------------------------------------------------------------------\n"
        "fixture/deperiodic  FTPDATA   0%        100%        1          POISSON        \n",
    /*bursts_session=*/"n=7 1744030472a78152",
    /*bursts_pair=*/"n=6 e0f1e3221561eab4",
    /*spacings_session=*/"n=10 a3e71a67e9e2ba1f",
    /*spacings_pair=*/"n=11 1fda4a702dacd0de",
    /*arrivals=*/"TELNET n=14 4a8210d7efa1280d\n"
        "RLOGIN n=0 cbf29ce484222325\n"
        "FTP n=0 cbf29ce484222325\n"
        "FTPDATA n=13 0673e36daee81d67\n"
        "SMTP n=12 ecf8ffb92d8dc3b3\n"
        "NNTP n=3 5d001438dc5bd38c\n"
        "WWW n=0 cbf29ce484222325\n"
        "X11 n=0 cbf29ce484222325\n"
        "DNS n=0 cbf29ce484222325\n"
        "MBONE n=0 cbf29ce484222325\n"
        "OTHER n=0 cbf29ce484222325\n",
};

const Pins kSynthDayPins = {
    /*periodic=*/"0>3199 FTP n=24 period=40ac1e041d2d6eed cv=3f71be98bcd55fc5\n"
        "0>3199 FTPDATA n=24 period=40ac1e041d2d6eed cv=3f71be98bcd55fc5\n"
        "4>223 FTPDATA n=8 period=3fe5614e3e8e9249 cv=3fc9a228f7b55a6f\n"
        "50>210 X11 n=8 period=40196a567fbb0000 cv=3fcf5cf9751b38e7\n"
        "182>265 X11 n=8 period=400e7ee638f79249 cv=3fc171d7ccc9a226\n",
    /*deperiodic=*/"CLI/deperiodic [0000000000000000,40f5180000000000] n=114546 aef0834e784ef6c4",
    /*report_hour=*/"CLI/deperiodic TELNET n=24 exp=22 indep=24 pos=11 slots=24 00eac4fdeec2c0bb\n"
        "CLI/deperiodic FTP n=24 exp=23 indep=24 pos=9 slots=24 a7c31da85bb9459f\n"
        "CLI/deperiodic FTPDATA n=24 exp=0 indep=2 pos=24 slots=24 7395ad3e658f14e2\n"
        "CLI/deperiodic SMTP n=24 exp=1 indep=11 pos=23 slots=24 b1bfca42bd4b246d\n"
        "CLI/deperiodic NNTP n=24 exp=0 indep=6 pos=24 slots=24 76a68d690c85084f\n"
        "CLI/deperiodic WWW n=18 exp=0 indep=18 pos=6 slots=24 11d1474f08a121e4\n"
        "CLI/deperiodic RLOGIN n=22 exp=21 indep=22 pos=11 slots=24 5ef4e72659438350\n"
        "CLI/deperiodic X11 n=23 exp=1 indep=14 pos=14 slots=24 c53f3a16d757691f\n"
        "CLI/deperiodic FTPDATA-burst n=24 exp=19 indep=21 pos=15 slots=24 08610075ab0920dc\n",
    /*table_hour=*/"trace           protocol       exp-pass  indep-pass  intervals  verdict      corr  \n"
        "-----------------------------------------------------------------------------------\n"
        "CLI/deperiodic  TELNET         91.7%     100%        24         POISSON            \n"
        "CLI/deperiodic  FTP            95.8%     100%        24         POISSON            \n"
        "CLI/deperiodic  FTPDATA        0%        8.33%       24         not-Poisson  +     \n"
        "CLI/deperiodic  SMTP           4.17%     45.8%       24         not-Poisson  +     \n"
        "CLI/deperiodic  NNTP           0%        25%         24         not-Poisson  +     \n"
        "CLI/deperiodic  WWW            0%        100%        18         not-Poisson        \n"
        "CLI/deperiodic  RLOGIN         95.5%     100%        22         POISSON            \n"
        "CLI/deperiodic  X11            4.35%     60.9%       23         not-Poisson        \n"
        "CLI/deperiodic  FTPDATA-burst  79.2%     87.5%       24         not-Poisson        \n",
    /*report_ten_min=*/"CLI/deperiodic TELNET n=112 exp=105 indep=109 pos=60 slots=144 5a9299da2400081f\n"
        "CLI/deperiodic FTP n=112 exp=110 indep=112 pos=54 slots=144 1e9f9181907a826f\n"
        "CLI/deperiodic FTPDATA n=144 exp=0 indep=42 pos=140 slots=144 764fd4a4a6fc5d8c\n"
        "CLI/deperiodic SMTP n=144 exp=74 indep=121 pos=100 slots=144 a5b4500e272ecf30\n"
        "CLI/deperiodic NNTP n=144 exp=64 indep=109 pos=121 slots=144 205489e18eddd121\n"
        "CLI/deperiodic WWW n=59 exp=13 indep=58 pos=25 slots=144 afc71160d8df0d93\n"
        "CLI/deperiodic RLOGIN n=78 exp=74 indep=77 pos=34 slots=144 0853ada399853cb5\n"
        "CLI/deperiodic X11 n=76 exp=12 indep=72 pos=42 slots=144 de57509a8e2414c9\n"
        "CLI/deperiodic FTPDATA-burst n=143 exp=130 indep=136 pos=68 slots=144 9c151b7c45f0e2ca\n",
    /*table_ten_min=*/"trace           protocol       exp-pass  indep-pass  intervals  verdict      corr  \n"
        "-----------------------------------------------------------------------------------\n"
        "CLI/deperiodic  TELNET         93.8%     97.3%       112        POISSON            \n"
        "CLI/deperiodic  FTP            98.2%     100%        112        POISSON            \n"
        "CLI/deperiodic  FTPDATA        0%        29.2%       144        not-Poisson  +     \n"
        "CLI/deperiodic  SMTP           51.4%     84%         144        not-Poisson  +     \n"
        "CLI/deperiodic  NNTP           44.4%     75.7%       144        not-Poisson  +     \n"
        "CLI/deperiodic  WWW            22%       98.3%       59         not-Poisson        \n"
        "CLI/deperiodic  RLOGIN         94.9%     98.7%       78         POISSON            \n"
        "CLI/deperiodic  X11            15.8%     94.7%       76         not-Poisson        \n"
        "CLI/deperiodic  FTPDATA-burst  90.9%     95.1%       143        not-Poisson        \n",
    /*bursts_session=*/"n=11087 d30f35a6813fd9bd",
    /*bursts_pair=*/"n=11072 6c236ee48807a388",
    /*spacings_session=*/"n=81238 b6f568e8222217cc",
    /*spacings_pair=*/"n=81515 d0500108ed35f0c5",
    /*arrivals=*/"TELNET n=3039 f28478ed779e7305\n"
        "RLOGIN n=1257 b1b4d3550933b6db\n"
        "FTP n=2518 a35ca43d5cf065b0\n"
        "FTPDATA n=83763 241aaf42215900aa\n"
        "SMTP n=8959 222faf919304bc3a\n"
        "NNTP n=11152 30481cf8f16dbc56\n"
        "WWW n=1563 38a615b3413aa6a9\n"
        "X11 n=2367 87560a5663ece057\n"
        "DNS n=0 cbf29ce484222325\n"
        "MBONE n=0 cbf29ce484222325\n"
        "OTHER n=0 cbf29ce484222325\n",
};

TEST(ConnAnalysisPins, HandBuiltFixture) {
  expect_pins(fixture(), kFixturePins);
}

// The day `wantraffic_synth conn --days 1 --seed 1` writes.
TEST(ConnAnalysisPins, SynthesizedDay) {
  expect_pins(
      synth::synthesize_conn_trace(synth::lbl_conn_preset("CLI", 1.0, 1)),
      kSynthDayPins);
}

// Keys that agree in their low bits: host ids that are multiples of
// 2^20 (so host pairs are multiples of 2^52) and session ids k * 2^32.
// Every stream and session must still come out whole and in key order.
TEST(ConnAnalysisPins, KeysSharingLowBitsGroupExactly) {
  constexpr std::uint32_t kKeys = 4000;
  std::vector<ConnRecord> r;
  for (int j = 0; j < 8; ++j) {
    for (std::uint32_t k = 1; k <= kKeys; ++k) {
      const double t0 = 1e-3 * k;
      r.push_back(rec(t0 + 60.0 * j, 1.0, Protocol::kSmtp, k << 20,
                      (kKeys - k) << 20, 100));
      if (j < 3) {
        const double offset[] = {0.0, 1.0, 100.0};
        r.push_back(rec(t0 + offset[j], 0.5, Protocol::kFtpData, k << 20, 0,
                        1000, std::uint64_t{k} << 32));
      }
    }
  }
  const ConnTrace tr("crafted", 0.0, 600.0, std::move(r));

  const auto found = trace::detect_periodic_streams(tr);
  ASSERT_EQ(found.size(), kKeys);
  for (std::uint32_t k = 1; k <= kKeys; ++k) {
    const trace::PeriodicStream& s = found[k - 1];
    EXPECT_EQ(s.src_host, k << 20);
    EXPECT_EQ(s.dst_host, (kKeys - k) << 20);
    EXPECT_EQ(s.protocol, Protocol::kSmtp);
    EXPECT_EQ(s.connections, 8u);
    EXPECT_NEAR(s.mean_period, 60.0, 1e-9);
  }
  const ConnTrace kept = trace::remove_periodic_streams(tr);
  EXPECT_EQ(kept.size(), 3u * kKeys);
  for (const ConnRecord& c : kept.records())
    EXPECT_EQ(c.protocol, Protocol::kFtpData);

  // Each session: connections at +0 and +1 (one burst), then +100.
  for (const auto grouping :
       {SessionGrouping::kSessionId, SessionGrouping::kHostPair}) {
    const int shift = grouping == SessionGrouping::kSessionId ? 32 : 52;
    std::map<std::uint64_t, std::vector<std::size_t>> sizes;
    for (const trace::FtpBurst& b : trace::find_ftp_bursts(kept, 4.0, grouping))
      sizes[b.session_id].push_back(b.n_connections);
    ASSERT_EQ(sizes.size(), kKeys);
    std::uint64_t k = 1;
    for (const auto& [key, n] : sizes) {
      EXPECT_EQ(key, k++ << shift);
      EXPECT_EQ(n, (std::vector<std::size_t>{2, 1}));
    }
    std::size_t short_gaps = 0, long_gaps = 0;
    for (double s : trace::intra_session_spacings(kept, grouping)) {
      if (std::abs(s - 0.5) < 1e-6) ++short_gaps;
      if (std::abs(s - 98.5) < 1e-6) ++long_gaps;
    }
    EXPECT_EQ(short_gaps, kKeys);
    EXPECT_EQ(long_gaps, kKeys);
  }
}

}  // namespace
}  // namespace wan
