// Sharded execution pins (ctest label `shard`): the merge algebra of
// the accumulators that merge (bin counts, moments, burst/lull runs),
// and the end-to-end invariant that per-shard synthesis analyzed by
// analyze_sharded_sources is byte-identical to the serial path at every
// tested (shard count, thread count) and filter configuration.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/par/parallel.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stream/columnar.hpp"
#include "src/stream/pipeline.hpp"
#include "src/stream/shard.hpp"
#include "src/synth/stream_synth.hpp"
#include "src/synth/synthesizer.hpp"

namespace wan {
namespace {

std::vector<double> test_series(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::poisson_distribution<int> pois(2.0);
  std::vector<double> x(n);
  for (double& v : x) v = static_cast<double>(pois(gen));
  return x;
}

// --- Accumulator merge algebra ------------------------------------------

TEST(ShardMerge, MomentMergeIsDeterministicAndAccurate) {
  const std::vector<double> x = test_series(10000, 1);
  stats::MomentAccumulator serial;
  serial.push(std::span<const double>(x));

  // Three contiguous shards, folded in shard order.
  auto run_fold = [&] {
    stats::MomentAccumulator a, b, c;
    a.push(std::span<const double>(x).subspan(0, 3000));
    b.push(std::span<const double>(x).subspan(3000, 4500));
    c.push(std::span<const double>(x).subspan(7500));
    a.merge(b);
    a.merge(c);
    return a;
  };
  const stats::MomentAccumulator m1 = run_fold();
  const stats::MomentAccumulator m2 = run_fold();

  // Fixed fold order => identical bits run to run.
  EXPECT_EQ(m1.mean(), m2.mean());
  EXPECT_EQ(m1.variance_sample(), m2.variance_sample());

  // vs the serial pass: exact count/extrema, rounding-level moments.
  EXPECT_EQ(m1.count(), serial.count());
  EXPECT_EQ(m1.min(), serial.min());
  EXPECT_EQ(m1.max(), serial.max());
  EXPECT_NEAR(m1.mean(), serial.mean(), 1e-12 * std::abs(serial.mean()));
  EXPECT_NEAR(m1.variance_sample(), serial.variance_sample(),
              1e-10 * serial.variance_sample());
}

TEST(ShardMerge, MomentMergeWithEmptyOperandsIsExact) {
  const std::vector<double> x = test_series(100, 2);
  stats::MomentAccumulator serial;
  serial.push(std::span<const double>(x));

  stats::MomentAccumulator a, empty;
  a.push(std::span<const double>(x));
  a.merge(empty);  // no-op
  EXPECT_EQ(a.mean(), serial.mean());
  EXPECT_EQ(a.variance_sample(), serial.variance_sample());

  stats::MomentAccumulator b;
  b.merge(a);  // copy into empty
  EXPECT_EQ(b.mean(), serial.mean());
  EXPECT_EQ(b.variance_sample(), serial.variance_sample());
  EXPECT_EQ(b.count(), serial.count());
}

TEST(ShardMerge, BinCountsMergeIsExactAndOrderFree) {
  // Events split by an arbitrary hash — NOT contiguously — because bin
  // increments are exact integer adds, order-free.
  std::mt19937 gen(4);
  std::uniform_real_distribution<double> t(0.0, 100.0);
  std::vector<double> times(20000);
  for (double& v : times) v = t(gen);

  stats::BinCountsAccumulator serial(0.0, 100.0, 0.1);
  serial.add(std::span<const double>(times));

  constexpr std::size_t kShards = 5;
  std::vector<stats::BinCountsAccumulator> shards;
  for (std::size_t s = 0; s < kShards; ++s) shards.emplace_back(0.0, 100.0, 0.1);
  for (std::size_t i = 0; i < times.size(); ++i)
    shards[stream::shard_mix(i) % kShards].add(times[i]);

  // Fold in reverse shard order on purpose: exactness is order-free.
  stats::BinCountsAccumulator merged(0.0, 100.0, 0.1);
  for (std::size_t s = kShards; s-- > 0;) merged.merge(shards[s]);
  EXPECT_EQ(merged.counts(), serial.counts());
}

TEST(ShardMerge, BinCountsMergeRejectsGridMismatch) {
  stats::BinCountsAccumulator a(0.0, 10.0, 0.1);
  stats::BinCountsAccumulator b(0.0, 10.0, 0.2);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(ShardMerge, BurstLullMergeIsTrulyAssociative) {
  const std::vector<double> x = test_series(5000, 6);
  stats::BurstLullAccumulator serial;
  serial.push(std::span<const double>(x));
  const stats::BurstLull want = serial.finish();

  // Contiguous three-way split at arbitrary (run-splitting) boundaries.
  auto part = [&](std::size_t lo, std::size_t hi) {
    stats::BurstLullAccumulator acc;
    acc.push(std::span<const double>(x).subspan(lo, hi - lo));
    return acc;
  };
  stats::BurstLullAccumulator a = part(0, 1237);
  stats::BurstLullAccumulator b = part(1237, 3411);
  stats::BurstLullAccumulator c = part(3411, x.size());

  // (a + b) + c
  stats::BurstLullAccumulator left = a;
  left.merge(b);
  left.merge(c);
  // a + (b + c)
  stats::BurstLullAccumulator bc = b;
  bc.merge(c);
  stats::BurstLullAccumulator right = a;
  right.merge(bc);

  const stats::BurstLull l = left.finish();
  const stats::BurstLull r = right.finish();
  EXPECT_EQ(l.burst_lengths, want.burst_lengths);
  EXPECT_EQ(l.lull_lengths, want.lull_lengths);
  EXPECT_EQ(r.burst_lengths, want.burst_lengths);
  EXPECT_EQ(r.lull_lengths, want.lull_lengths);
}

// --- Per-shard synthesis and the end-to-end byte-identity invariant -----

synth::PacketDatasetConfig shard_test_config() {
  synth::PacketDatasetConfig cfg =
      synth::lbl_pkt_preset("shard-test", /*tcp_only=*/false, /*seed=*/11);
  cfg.hours = 0.25;
  return cfg;
}

// {protocol}, {orig-data} and {protocol + orig-data}, each with and
// without outlier removal: every branch of the filter stack, and the
// outlier stage inside each shard.
std::vector<stream::PipelineOptions> filtered_options() {
  std::vector<stream::PipelineOptions> out;
  for (const bool outliers : {false, true}) {
    for (const int filter : {0, 1, 2}) {  // protocol, orig-data, both
      stream::PipelineOptions opt;
      opt.bin = 0.5;
      if (filter != 1) opt.protocol = trace::Protocol::kFtpData;
      opt.orig_data_only = filter != 0;
      opt.remove_outliers = outliers;
      out.push_back(opt);
    }
  }
  return out;
}

// Per-shard synthesis: shard s regenerates exactly its own connections;
// the merged analysis matches the serial bytes — unfiltered, and through
// every filter configuration, whose outlier stage then runs inside
// each shard — at shard counts 1/4/7 and thread counts 1/4.
TEST(ShardPipeline, PerShardSynthesisIsByteIdenticalToSerial) {
  const auto cfg = shard_test_config();
  std::vector<stream::PipelineOptions> configs = filtered_options();
  stream::PipelineOptions plain;
  plain.bin = 0.5;
  configs.insert(configs.begin(), plain);

  for (const stream::PipelineOptions& opt : configs) {
    synth::StreamingPacketSynthesizer serial_src(cfg);
    const stream::PipelineResult serial =
        stream::analyze_stream(serial_src, opt);
    const std::string want = stream::vt_csv(serial);
    ASSERT_GT(serial.packets, 0u) << serial.info.name;

    for (std::size_t shards :
         {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        par::set_thread_count(threads);
        const stream::PipelineResult sharded = stream::analyze_sharded_sources(
            [&](std::size_t s) -> std::unique_ptr<stream::PacketChunkSource> {
              return std::make_unique<synth::StreamingPacketSynthesizer>(
                  cfg, stream::kDefaultChunkSize,
                  synth::SynthShard{s, shards});
            },
            shards, opt);
        EXPECT_EQ(sharded.packets, serial.packets)
            << serial.info.name << ", " << shards << " shards, " << threads
            << " threads";
        EXPECT_EQ(sharded.counts, serial.counts);
        EXPECT_EQ(sharded.info.name, serial.info.name);
        EXPECT_EQ(stream::vt_csv(sharded), want);
      }
    }
  }
  par::set_thread_count(1);
}

// Per-shard synthesis partitions the record set exactly: the shards'
// records, pooled, are a permutation of the serial trace's records, and
// every shard holds precisely its hash class.
TEST(ShardSynth, ShardsPartitionTheSerialRecordSet) {
  const auto cfg = shard_test_config();
  synth::StreamingPacketSynthesizer serial(cfg);
  const trace::PacketTrace want = stream::collect(serial);

  constexpr std::size_t kShards = 4;
  std::size_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    synth::StreamingPacketSynthesizer shard(cfg, stream::kDefaultChunkSize,
                                            synth::SynthShard{s, kShards});
    const trace::PacketTrace got = stream::collect(shard);
    total += got.size();
    // Every record belongs to this shard, and appears in the serial
    // trace's record multiset for the same connection.
    for (const trace::PacketRecord& r : got.records())
      ASSERT_EQ(stream::shard_of(r.conn_id, kShards), s);
  }
  EXPECT_EQ(total, want.size());
}

TEST(ShardPipeline, RejectsZeroAndOversizedShardCounts) {
  const auto cfg = shard_test_config();
  stream::PipelineOptions opt;
  opt.bin = 0.5;
  std::size_t made = 0;
  const auto make = [&](std::size_t s)
      -> std::unique_ptr<stream::PacketChunkSource> {
    ++made;
    return std::make_unique<synth::StreamingPacketSynthesizer>(
        cfg, stream::kDefaultChunkSize, synth::SynthShard{s, 1});
  };
  EXPECT_THROW(stream::analyze_sharded_sources(make, 0, opt),
               std::invalid_argument);
  EXPECT_THROW(stream::analyze_sharded_sources(make, stream::kMaxShards + 1,
                                               opt),
               std::invalid_argument);
  EXPECT_EQ(made, 0u);  // rejected before any shard is opened
  EXPECT_NO_THROW(stream::analyze_sharded_sources(make, 1, opt));
}

TEST(ShardSynth, RejectsInvalidShardSpec) {
  const auto cfg = shard_test_config();
  EXPECT_THROW(synth::StreamingPacketSynthesizer(
                   cfg, stream::kDefaultChunkSize, synth::SynthShard{2, 2}),
               std::invalid_argument);
  EXPECT_THROW(synth::StreamingPacketSynthesizer(
                   cfg, stream::kDefaultChunkSize, synth::SynthShard{0, 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wan
