// Tests for the deterministic parallel execution layer: pool mechanics,
// exception propagation, and the bit-for-bit parallel == serial pins for
// every pipeline wired into src/par (synthesizer, variance-time,
// Whittle, R/S).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <stdexcept>
#include <vector>

#include "src/par/parallel.hpp"
#include "src/par/thread_pool.hpp"
#include "src/rng/rng.hpp"
#include "src/selfsim/farima.hpp"
#include "src/selfsim/fgn.hpp"
#include "src/stats/rs_analysis.hpp"
#include "src/stats/variance_time.hpp"
#include "src/stats/whittle.hpp"
#include "src/synth/packet_fill.hpp"
#include "src/synth/synthesizer.hpp"
#include "src/trace/conn_trace.hpp"

namespace wan {
namespace {

// Every test restores the ambient thread count so test order cannot leak
// a setting into unrelated suites.
class ParTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = par::thread_count(); }
  void TearDown() override { par::set_thread_count(saved_); }

 private:
  std::size_t saved_ = 1;
};

using ThreadPoolTest = ParTest;
using ParallelForTest = ParTest;
using ParallelReduceTest = ParTest;
using ParDeterminismTest = ParTest;

TEST_F(ThreadPoolTest, ReusableAcrossSubmissions) {
  par::ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 16; ++i)
      futs.push_back(pool.submit([&count] { ++count; }));
    for (auto& f : futs) f.get();
    EXPECT_EQ(count.load(), 16 * (round + 1));
  }
}

TEST_F(ThreadPoolTest, SubmitCarriesExceptionsThroughFuture) {
  par::ThreadPool pool(1);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survives a throwing task.
  auto ok = pool.submit([] {});
  EXPECT_NO_THROW(ok.get());
}

TEST_F(ThreadPoolTest, ZeroWorkerPoolRunsViaHelpers) {
  par::ThreadPool pool(0);
  auto f = pool.submit([] {});
  EXPECT_TRUE(pool.run_pending_task());
  EXPECT_NO_THROW(f.get());
  EXPECT_FALSE(pool.run_pending_task());
}

TEST_F(ParallelForTest, CoversRangeExactlyOnce) {
  par::set_thread_count(4);
  constexpr std::size_t kN = 10000;
  std::vector<int> hits(kN, 0);
  par::parallel_for(0, kN, 37, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST_F(ParallelForTest, PropagatesExceptions) {
  par::set_thread_count(4);
  EXPECT_THROW(
      par::parallel_for(0, 1000, 1,
                        [](std::size_t b, std::size_t) {
                          if (b == 500) throw std::invalid_argument("bad");
                        }),
      std::invalid_argument);
  // The global pool is still usable after a failed region.
  std::atomic<int> count{0};
  par::parallel_for(0, 100, 1, [&](std::size_t b, std::size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST_F(ParallelForTest, NestedRegionsDoNotDeadlock) {
  par::set_thread_count(4);
  std::atomic<int> count{0};
  par::parallel_for(0, 8, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      par::parallel_for(0, 64, 4, [&](std::size_t ib, std::size_t ie) {
        count += static_cast<int>(ie - ib);
      });
    }
  });
  EXPECT_EQ(count.load(), 8 * 64);
}

// A region starts only the helpers it can use: min(thread count,
// chunks) - 1. A thread budget far above the chunk count (--threads
// 5000, WAN_THREADS=5000) must not start a worker per unit of budget.
TEST_F(ParallelForTest, PoolGrowsOnlyToTheHelpersARegionSubmits) {
  const std::size_t before = par::global_pool().size();
  par::set_thread_count(1000);
  std::atomic<int> count{0};
  par::parallel_for(0, 8, 1, [&](std::size_t b, std::size_t e) {
    count += static_cast<int>(e - b);
  });
  EXPECT_EQ(count.load(), 8);
  EXPECT_LE(par::global_pool().size(), std::max<std::size_t>(before, 7));
}

TEST_F(ParallelReduceTest, OrderedReductionIsThreadCountInvariant) {
  // A sum of magnitudes spanning 12 decades: any regrouping of the adds
  // shows up in the low bits, so bitwise equality across thread counts
  // demonstrates the ordered reduction really is deterministic.
  rng::Rng rng(123);
  std::vector<double> x(100001);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = rng.uniform01() * std::pow(10.0, static_cast<double>(i % 13) - 6);

  auto sum_at = [&](std::size_t threads) {
    par::set_thread_count(threads);
    return par::parallel_transform_reduce(
        std::size_t{0}, x.size(), std::size_t{1024}, 0.0,
        [&](std::size_t i) { return x[i]; },
        [](double a, double b) { return a + b; });
  };
  const double s1 = sum_at(1);
  const double s2 = sum_at(2);
  const double s4 = sum_at(4);
  const double s7 = sum_at(7);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(s1, s7);
}

TEST_F(ParDeterminismTest, SynthesizerConnTraceBitForBit) {
  synth::ConnDatasetConfig cfg;
  cfg.name = "PAR-TEST";
  cfg.days = 0.1;
  cfg.seed = 99;

  par::set_thread_count(1);
  const auto serial = synth::synthesize_conn_trace(cfg);
  par::set_thread_count(4);
  const auto parallel = synth::synthesize_conn_trace(cfg);

  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_GT(serial.size(), 0u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial.records()[i];
    const auto& b = parallel.records()[i];
    ASSERT_EQ(a.start, b.start) << i;
    ASSERT_EQ(a.duration, b.duration) << i;
    ASSERT_EQ(a.protocol, b.protocol) << i;
    ASSERT_EQ(a.src_host, b.src_host) << i;
    ASSERT_EQ(a.dst_host, b.dst_host) << i;
    ASSERT_EQ(a.bytes_orig, b.bytes_orig) << i;
    ASSERT_EQ(a.bytes_resp, b.bytes_resp) << i;
    ASSERT_EQ(a.session_id, b.session_id) << i;
  }
}

TEST_F(ParDeterminismTest, SynthesizerPacketTraceBitForBit) {
  auto cfg = synth::lbl_pkt_preset("PAR-PKT", /*tcp_only=*/false, 17);
  cfg.hours = 0.1;

  par::set_thread_count(1);
  const auto serial = synth::synthesize_packet_trace(cfg);
  par::set_thread_count(4);
  const auto parallel = synth::synthesize_packet_trace(cfg);

  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_GT(serial.size(), 0u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial.records()[i];
    const auto& b = parallel.records()[i];
    ASSERT_EQ(a.time, b.time) << i;
    ASSERT_EQ(a.protocol, b.protocol) << i;
    ASSERT_EQ(a.conn_id, b.conn_id) << i;
    ASSERT_EQ(a.from_originator, b.from_originator) << i;
    ASSERT_EQ(a.payload_bytes, b.payload_bytes) << i;
  }
}

TEST_F(ParDeterminismTest, FillBulkPacketsBitForBit) {
  // A hand-built bulk trace with non-bulk records interleaved, so the
  // id assignment (record order, bulk-only) is exercised too.
  trace::ConnTrace conns("bulk", 0.0, 600.0);
  rng::Rng setup(3);
  for (int i = 0; i < 40; ++i) {
    trace::ConnRecord r;
    r.start = setup.uniform01() * 500.0;
    r.duration = 5.0 + setup.uniform01() * 60.0;
    r.protocol = (i % 7 == 3) ? trace::Protocol::kTelnet
               : (i % 3 == 0) ? trace::Protocol::kFtpData
               : (i % 3 == 1) ? trace::Protocol::kSmtp
                              : trace::Protocol::kWww;
    r.bytes_orig = 200 + static_cast<std::uint64_t>(setup.uniform01() * 5e4);
    r.bytes_resp = 100 + static_cast<std::uint64_t>(setup.uniform01() * 1e4);
    conns.add(r);
  }

  const synth::PacketFillConfig fill;
  par::set_thread_count(1);
  rng::Rng r1(42);
  std::uint32_t id1 = 7;
  trace::PacketTrace serial("fill", 0.0, 600.0);
  synth::fill_bulk_packets(r1, conns, fill, &id1, serial);

  par::set_thread_count(4);
  rng::Rng r2(42);
  std::uint32_t id2 = 7;
  trace::PacketTrace parallel("fill", 0.0, 600.0);
  synth::fill_bulk_packets(r2, conns, fill, &id2, parallel);

  EXPECT_EQ(id1, id2);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_GT(serial.size(), 0u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial.records()[i];
    const auto& b = parallel.records()[i];
    ASSERT_EQ(a.time, b.time) << i;
    ASSERT_EQ(a.protocol, b.protocol) << i;
    ASSERT_EQ(a.conn_id, b.conn_id) << i;
    ASSERT_EQ(a.from_originator, b.from_originator) << i;
    ASSERT_EQ(a.payload_bytes, b.payload_bytes) << i;
  }
}

TEST_F(ParDeterminismTest, VarianceTimeBitForBit) {
  rng::Rng rng(7);
  const auto x = selfsim::generate_fgn(rng, 1 << 15, 0.8);

  par::set_thread_count(1);
  const auto serial = stats::variance_time_plot(x);
  par::set_thread_count(4);
  const auto parallel = stats::variance_time_plot(x);

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  ASSERT_GT(serial.points.size(), 5u);
  EXPECT_EQ(serial.base_mean, parallel.base_mean);
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].m, parallel.points[i].m);
    EXPECT_EQ(serial.points[i].variance, parallel.points[i].variance);
    EXPECT_EQ(serial.points[i].normalized, parallel.points[i].normalized);
    EXPECT_EQ(serial.points[i].n_blocks, parallel.points[i].n_blocks);
  }
}

TEST_F(ParDeterminismTest, WhittleBitForBit) {
  rng::Rng rng(21);
  const auto x = selfsim::generate_fgn(rng, 4096, 0.75);

  par::set_thread_count(1);
  const auto serial = stats::whittle_fgn(x);
  par::set_thread_count(4);
  const auto parallel = stats::whittle_fgn(x);

  EXPECT_EQ(serial.hurst, parallel.hurst);
  EXPECT_EQ(serial.scale, parallel.scale);
  EXPECT_EQ(serial.objective, parallel.objective);
  EXPECT_EQ(serial.stderr_hurst, parallel.stderr_hurst);

  par::set_thread_count(1);
  const auto serial_fa = stats::whittle_farima(x);
  par::set_thread_count(4);
  const auto parallel_fa = stats::whittle_farima(x);
  EXPECT_EQ(serial_fa.hurst, parallel_fa.hurst);
  EXPECT_EQ(serial_fa.objective, parallel_fa.objective);
}

TEST_F(ParDeterminismTest, GenerateFgnBitForBit) {
  // The spectral-noise chunks draw from pre-derived per-chunk RNG
  // streams (chunk_rng.hpp) and the irfft butterflies write disjoint
  // slots, so the sample path is a pure function of the seed. 2^16
  // points spans several synthesis chunks and FFT grain chunks.
  par::set_thread_count(1);
  rng::Rng r1(404);
  const auto serial = selfsim::generate_fgn(r1, std::size_t{1} << 16, 0.8);
  par::set_thread_count(4);
  rng::Rng r2(404);
  const auto parallel = selfsim::generate_fgn(r2, std::size_t{1} << 16, 0.8);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], parallel[i]) << i;
  // Both runs consumed the same single u64 stream key.
  EXPECT_EQ(r1.next_u64(), r2.next_u64());
}

TEST_F(ParDeterminismTest, GenerateFarimaBitForBit) {
  par::set_thread_count(1);
  rng::Rng r1(505);
  const auto serial =
      selfsim::generate_farima(r1, std::size_t{1} << 15, 0.3);
  par::set_thread_count(4);
  rng::Rng r2(505);
  const auto parallel =
      selfsim::generate_farima(r2, std::size_t{1} << 15, 0.3);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], parallel[i]) << i;
}

TEST_F(ParDeterminismTest, RsAnalysisBitForBit) {
  rng::Rng rng(33);
  const auto x = selfsim::generate_fgn(rng, 1 << 14, 0.8);

  par::set_thread_count(1);
  const auto serial = stats::rs_analysis(x);
  par::set_thread_count(4);
  const auto parallel = stats::rs_analysis(x);

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].window, parallel.points[i].window);
    EXPECT_EQ(serial.points[i].mean_rs, parallel.points[i].mean_rs);
  }
}

}  // namespace
}  // namespace wan
