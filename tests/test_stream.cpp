// Parity tests for the streaming layer (ctest label `stream`): every
// streaming component must reproduce its batch counterpart exactly —
// record for record for sources and filters, bit for bit for the
// accumulators, byte for byte for files and figure CSVs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/ingest/pcap_writer.hpp"
#include "src/rng/rng.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/variance_time.hpp"
#include "src/stream/binary_chunk.hpp"
#include "src/stream/chunk.hpp"
#include "src/stream/csv_chunk.hpp"
#include "src/stream/pipeline.hpp"
#include "src/synth/stream_synth.hpp"
#include "src/synth/synthesizer.hpp"
#include "src/trace/binary_io.hpp"
#include "src/trace/csv_io.hpp"

namespace wan {
namespace {

// Deleting on destruction keeps repeated runs from accumulating files.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// Field-by-field comparison; double compares are exact on purpose (the
// streaming layer promises identical values, not close ones).
void expect_same_records(const trace::PacketTrace& got,
                         const trace::PacketTrace& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const trace::PacketRecord& g = got.records()[i];
    const trace::PacketRecord& w = want.records()[i];
    ASSERT_EQ(g.time, w.time) << "record " << i;
    ASSERT_EQ(g.protocol, w.protocol) << "record " << i;
    ASSERT_EQ(g.conn_id, w.conn_id) << "record " << i;
    ASSERT_EQ(g.from_originator, w.from_originator) << "record " << i;
    ASSERT_EQ(g.payload_bytes, w.payload_bytes) << "record " << i;
  }
}

// A small but non-trivial trace exercising every filter: several
// protocols, both directions, pure acks, and one bulk-outlier conn.
trace::PacketTrace make_test_trace() {
  trace::PacketTrace t("test", 0.0, 400.0);
  auto add = [&](double time, trace::Protocol proto, std::uint32_t conn,
                 bool orig, std::uint16_t payload) {
    trace::PacketRecord r;
    r.time = time;
    r.protocol = proto;
    r.conn_id = conn;
    r.from_originator = orig;
    r.payload_bytes = payload;
    t.add(r);
  };
  using trace::Protocol;
  for (int i = 0; i < 200; ++i) {
    const double base = i * 1.7;
    add(base, Protocol::kTelnet, 1 + (i % 3), true, 1);
    add(base + 0.1, Protocol::kTelnet, 1 + (i % 3), false, 2);
    add(base + 0.2, Protocol::kFtpData, 10 + (i % 2), true, 512);
    add(base + 0.3, Protocol::kSmtp, 20, true, 0);  // pure ack
  }
  // Conn 99: >1024 bytes at a sustained rate above 8 bytes/s.
  for (int i = 0; i < 20; ++i)
    add(5.0 + i * 0.5, Protocol::kTelnet, 99, true, 100);
  t.sort_by_time();
  return t;
}

synth::PacketDatasetConfig small_pkt_config(bool tcp_only) {
  synth::PacketDatasetConfig cfg =
      synth::lbl_pkt_preset("stream-test", tcp_only, /*seed=*/7);
  cfg.hours = 0.25;  // keep the test fast; still thousands of packets
  return cfg;
}

// --- Chunk sources -----------------------------------------------------

TEST(TraceChunkSource, RoundTripsAcrossChunkBoundaries) {
  const trace::PacketTrace t = make_test_trace();
  // Chunk size deliberately not a divisor of the record count.
  stream::TraceChunkSource src(t, /*chunk_size=*/7);
  const trace::PacketTrace back = stream::collect(src);
  EXPECT_EQ(back.name(), t.name());
  EXPECT_EQ(back.t_begin(), t.t_begin());
  EXPECT_EQ(back.t_end(), t.t_end());
  expect_same_records(back, t);

  // reset() replays from the first record.
  src.reset();
  expect_same_records(stream::collect(src), t);
}

TEST(TraceChunkSource, ExhaustedSourceReportsFalseWithEmptyChunk) {
  const trace::PacketTrace t = make_test_trace();
  stream::TraceChunkSource src(t);
  std::vector<trace::PacketRecord> chunk;
  while (src.next(chunk)) {
    EXPECT_FALSE(chunk.empty());
  }
  EXPECT_TRUE(chunk.empty());
  EXPECT_FALSE(src.next(chunk));  // stays exhausted
}

// --- Binary chunked I/O ------------------------------------------------

TEST(BinaryChunk, ChunkedWriterMatchesBatchFileByteForByte) {
  const trace::PacketTrace t = make_test_trace();
  TempFile batch("stream_batch.bin"), chunked("stream_chunked.bin");
  trace::write_binary_file(t, batch.path);
  {
    stream::ChunkedBinaryWriter w(
        chunked.path, {t.name(), t.t_begin(), t.t_end()});
    stream::TraceChunkSource src(t, /*chunk_size=*/13);
    std::vector<trace::PacketRecord> chunk;
    while (src.next(chunk)) w.write(chunk);
    w.close();
    EXPECT_EQ(w.count(), t.size());
  }
  const std::string a = slurp(batch.path), b = slurp(chunked.path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(BinaryChunk, SourceStreamsBackTheExactTrace) {
  const trace::PacketTrace t = make_test_trace();
  TempFile f("stream_src.bin");
  trace::write_binary_file(t, f.path);

  stream::BinaryChunkSource src(f.path, /*chunk_size=*/31);
  EXPECT_EQ(src.info().name, t.name());
  EXPECT_EQ(src.info().t_begin, t.t_begin());
  EXPECT_EQ(src.info().t_end, t.t_end());
  expect_same_records(stream::collect(src), t);

  src.reset();
  expect_same_records(stream::collect(src), t);
}

TEST(BinaryChunk, NonFiniteTimeRejectedByBothReaders) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    trace::PacketTrace t("bad", 0.0, 100.0);
    for (int i = 0; i < 100; ++i) {
      trace::PacketRecord r;
      r.time = i == 40 ? bad : i;
      t.add(r);
    }
    TempFile f("stream_nonfinite.bin");
    trace::write_binary_file(t, f.path);
    EXPECT_THROW(trace::read_packet_binary_file(f.path), std::runtime_error)
        << bad;
    stream::BinaryChunkSource src(f.path, /*chunk_size=*/31);
    EXPECT_THROW(stream::collect(src), std::runtime_error) << bad;
  }
}

// --- CSV chunked I/O ---------------------------------------------------

TEST(CsvChunk, ChunkedWriterMatchesBatchFileByteForByte) {
  const trace::PacketTrace t = make_test_trace();
  TempFile batch("stream_batch.csv"), chunked("stream_chunked.csv");
  trace::write_csv_file(t, batch.path);
  {
    stream::ChunkedCsvWriter w(chunked.path,
                               {t.name(), t.t_begin(), t.t_end()});
    stream::TraceChunkSource src(t, /*chunk_size=*/17);
    std::vector<trace::PacketRecord> chunk;
    while (src.next(chunk)) w.write(chunk);
    w.close();
  }
  const std::string a = slurp(batch.path), b = slurp(chunked.path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(CsvChunk, SourceParsesWhatTheBatchReaderParses) {
  const trace::PacketTrace t = make_test_trace();
  TempFile f("stream_src.csv");
  trace::write_csv_file(t, f.path);

  const trace::PacketTrace batch = trace::read_packet_csv_file(f.path);
  stream::CsvChunkSource src(f.path, /*chunk_size=*/23);
  expect_same_records(stream::collect(src), batch);

  src.reset();
  expect_same_records(stream::collect(src), batch);
}

// A packet CSV without its metadata line takes the window of its
// records (the rule in csv_io.hpp): the batch reader and the streamed
// source agree on it and on every result, and the first bin starts at
// the first packet, not at time 0.
TEST(CsvChunk, MetadataLessFileTakesTheWindowOfItsRecords) {
  const trace::PacketTrace t0 = make_test_trace();
  trace::PacketTrace t("late", 0.0, 0.0);
  for (trace::PacketRecord r : t0.records()) {
    r.time += 14 * 3600.0;  // a trace that starts at 14 h
    t.add(r);
  }
  std::stringstream ss;
  trace::write_csv(t, ss);
  std::string csv = ss.str();
  csv.erase(0, csv.find('\n') + 1);  // drop the metadata line
  TempFile f("stream_nometa.csv");
  std::ofstream(f.path) << csv;

  const double first = t.records().front().time;
  const double last = t.records().back().time;
  const trace::PacketTrace batch = trace::read_packet_csv_file(f.path);
  EXPECT_EQ(batch.t_begin(), first);
  EXPECT_EQ(batch.t_end(),
            std::nextafter(last, std::numeric_limits<double>::infinity()));
  stream::CsvChunkSource src(f.path, /*chunk_size=*/23);
  EXPECT_EQ(src.info().t_begin, batch.t_begin());
  EXPECT_EQ(src.info().t_end, batch.t_end());
  expect_same_records(stream::collect(src), batch);

  src.reset();
  stream::PipelineOptions opt;
  opt.bin = 1.0;
  opt.orig_data_only = true;
  opt.remove_outliers = true;
  stream::ColumnsFromRows columns(src);
  const stream::PipelineResult streamed = stream::analyze_columns(columns, opt);
  const stream::PipelineResult whole = stream::analyze_batch(batch, opt);
  EXPECT_EQ(streamed.info.t_begin, first);
  EXPECT_EQ(streamed.info.t_end, whole.info.t_end);
  EXPECT_EQ(streamed.packets, whole.packets);
  EXPECT_EQ(streamed.counts, whole.counts);
  EXPECT_EQ(stream::vt_csv(streamed), stream::vt_csv(whole));
  // The first packet is an originator data packet, so it is counted in
  // bin 0; the grid ends with the last packet's bin.
  ASSERT_FALSE(streamed.counts.empty());
  EXPECT_GE(streamed.counts.front(), 1.0);
  EXPECT_EQ(streamed.counts.size(),
            static_cast<std::size_t>(std::ceil((whole.info.t_end - first) /
                                               opt.bin)));
}

// --- Accumulators vs span statistics -----------------------------------

// Whole numbers drawn from Poisson(mean), by Knuth's product of uniforms.
std::vector<double> poisson_counts(std::size_t n, double mean,
                                   std::uint64_t seed) {
  rng::Rng rng(seed);
  const double floor = std::exp(-mean);
  std::vector<double> x(n);
  for (double& v : x) {
    double k = 0.0;
    for (double p = rng.uniform01(); p > floor; p *= rng.uniform01())
      k += 1.0;
    v = k;
  }
  return x;
}

// variance_time_plot runs its exact one-pass form on whole-number series
// with sum |x| <= 2^53 and its level-by-level fold on everything else;
// VtAccumulator folds every input. Each row must give the same bits both
// ways (NaN included, hence the bit_cast).
TEST(StreamAccumulators, VtAccumulatorBitIdenticalToSpanPlot) {
  struct Row {
    std::string name;
    std::vector<double> x;
    std::vector<std::size_t> levels;  // empty: the default levels
  };
  std::vector<Row> rows;

  const trace::PacketTrace t = make_test_trace();
  rows.push_back({"test trace counts",
                  stats::bin_counts(t.packet_times(), t.t_begin(),
                                    t.t_end(), 0.1),
                  {}});

  // pcap_fine's shape: sparse 1 ms counts, a length off the chunk grid.
  constexpr std::size_t kChunk = stats::kVtExactChunk;
  const std::vector<double> sparse =
      poisson_counts((std::size_t{1} << 20) + 1234, 0.016, 1);
  rows.push_back({"sparse counts, default levels", sparse, {}});
  rows.push_back({"sparse counts, levels on the chunk edges",
                  sparse,
                  {1, kChunk - 1, kChunk, kChunk + 1, sparse.size() / 2}});
  // Unsorted, with levels above kChunk (0 or 1 blocks per chunk) before
  // small ones, so a later level of a lane group has more blocks in a
  // chunk than an earlier one: the exact pass must not advance such a
  // group four levels at a time.
  rows.push_back({"sparse counts, unsorted levels around the chunk",
                  sparse,
                  {kChunk + 1, 1, 3 * kChunk, 2, 5000, 3, 4}});
  // Sorted levels without m = 1: every lane group's loop splits at block
  // counts short of the chunk.
  rows.push_back({"sparse counts, levels without 1",
                  sparse,
                  {2, 3, 4, 6, 10, 16, 25, 40, 63, 100}});

  rows.push_back({"dense counts", poisson_counts(1 << 16, 50.0, 2), {}});

  std::vector<double> negative = poisson_counts(50001, 3.0, 3);
  for (double& v : negative) v = v == 5.0 ? -0.0 : v - 5.0;
  rows.push_back({"negative whole numbers and -0", negative, {}});

  // 1024 values of 2^43, the last one 2^43 + 1: sum |x| = 2^53 + 1. The
  // last prefix sum rounds to 2^53, so prefix differences would make the
  // last value 2^43 and every level's variance 0, where the fold's block
  // sums (at most 2^50 at these levels) stay exact. The plot must take
  // the fold here: loosening the 2^53 bound fails this row.
  std::vector<double> past_exact(1024, 8796093022208.0);
  past_exact.back() += 1.0;
  rows.push_back({"whole numbers summing past 2^53", past_exact, {}});

  // Tenths, whose prefix sums round (quarters would not).
  std::vector<double> fractional = poisson_counts(20000, 4.0, 4);
  for (std::size_t i = 0; i < fractional.size(); ++i)
    fractional[i] += 0.1 * static_cast<double>(i % 7);
  rows.push_back({"fractional series", fractional, {}});

  std::vector<double> with_nan = poisson_counts(5000, 2.0, 5);
  with_nan[1234] = std::numeric_limits<double>::quiet_NaN();
  rows.push_back({"NaN", with_nan, {}});
  std::vector<double> with_inf = poisson_counts(5000, 2.0, 6);
  with_inf[99] = std::numeric_limits<double>::infinity();
  rows.push_back({"+inf", with_inf, {}});
  with_inf[99] = -std::numeric_limits<double>::infinity();
  rows.push_back({"-inf", with_inf, {}});

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const std::vector<std::size_t> levels =
        row.levels.empty() ? stats::default_aggregation_levels(row.x.size())
                           : row.levels;
    const stats::VarianceTimePlot span =
        stats::variance_time_plot(row.x, row.levels);
    stats::VtAccumulator acc(levels);
    acc.push(row.x);
    const stats::VarianceTimePlot streamed = acc.finish();

    EXPECT_EQ(bits(streamed.base_mean), bits(span.base_mean));
    ASSERT_EQ(streamed.points.size(), span.points.size());
    ASSERT_FALSE(span.points.empty());
    for (std::size_t i = 0; i < span.points.size(); ++i) {
      EXPECT_EQ(streamed.points[i].m, span.points[i].m);
      EXPECT_EQ(streamed.points[i].n_blocks, span.points[i].n_blocks);
      EXPECT_EQ(bits(streamed.points[i].variance),
                bits(span.points[i].variance))
          << "m=" << span.points[i].m;
      EXPECT_EQ(bits(streamed.points[i].normalized),
                bits(span.points[i].normalized))
          << "m=" << span.points[i].m;
    }
  }
}

TEST(StreamAccumulators, BinCountsAccumulatorMatchesBatch) {
  const trace::PacketTrace t = make_test_trace();
  const std::vector<double> times = t.packet_times();
  const std::vector<double> want =
      stats::bin_counts(times, t.t_begin(), t.t_end(), 0.25);
  stats::BinCountsAccumulator acc(t.t_begin(), t.t_end(), 0.25);
  for (double x : times) acc.add(x);
  EXPECT_EQ(acc.counts(), want);
}

TEST(StreamAccumulators, BurstLullAccumulatorMatchesBatch) {
  const trace::PacketTrace t = make_test_trace();
  const std::vector<double> counts =
      stats::bin_counts(t.packet_times(), t.t_begin(), t.t_end(), 0.1);
  const stats::BurstLull want = stats::burst_lull_structure(counts);
  stats::BurstLullAccumulator acc;
  for (double c : counts) acc.push(c);
  const stats::BurstLull got = acc.finish();
  EXPECT_EQ(got.burst_lengths, want.burst_lengths);
  EXPECT_EQ(got.lull_lengths, want.lull_lengths);
}

// --- Streaming synthesizer ---------------------------------------------

TEST(StreamingSynth, MatchesBatchSynthesizerTcpOnly) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/true);
  const trace::PacketTrace batch = synth::synthesize_packet_trace(cfg);
  ASSERT_GT(batch.size(), 1000u);

  synth::StreamingPacketSynthesizer src(cfg, /*chunk_size=*/1000);
  EXPECT_EQ(src.info().name, batch.name());
  EXPECT_EQ(src.info().t_begin, batch.t_begin());
  EXPECT_EQ(src.info().t_end, batch.t_end());
  expect_same_records(stream::collect(src), batch);
}

TEST(StreamingSynth, MatchesBatchSynthesizerAllProtocols) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/false);
  const trace::PacketTrace batch = synth::synthesize_packet_trace(cfg);
  ASSERT_GT(batch.size(), 1000u);

  synth::StreamingPacketSynthesizer src(cfg);
  expect_same_records(stream::collect(src), batch);
}

TEST(StreamingSynth, ResetReplaysIdentically) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/true);
  synth::StreamingPacketSynthesizer src(cfg, /*chunk_size=*/512);
  const trace::PacketTrace first = stream::collect(src);
  src.reset();
  const trace::PacketTrace second = stream::collect(src);
  expect_same_records(second, first);
}

// --- Streaming synthesizer golden pins ---------------------------------
//
// The parity tests above meet synthesize_packet_trace only at 0.25 h.
// These pins hold the 1 h streams themselves, at chunk sizes 1 and 4096,
// and the capture write_pcap_for_records makes of one of them. Equal
// times are common: the stream keeps such records in generation order,
// and the digest holds that order.

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
};

// One lbl_pkt_preset stream at 1 h: its packet count and an FNV-1a
// digest of every record's fields, each widened to 8 bytes (time by its
// bit pattern).
struct SynthPin {
  const char* label;
  bool tcp_only;
  std::uint64_t seed;
  synth::SynthShard shard;
  std::uint64_t packets;
  std::uint64_t digest;
};

// What one drain computes: the pin's fields, plus the count of records
// whose time equals the previous record's, and how many of those share
// its connection.
struct SynthDrain {
  std::uint64_t packets = 0;
  std::uint64_t digest = 0;
  std::uint64_t ties = 0;
  std::uint64_t ties_in_conn = 0;
};

SynthDrain drain_pin(const SynthPin& pin, std::size_t chunk_size,
                     std::vector<trace::PacketRecord>* keep = nullptr) {
  synth::PacketDatasetConfig cfg =
      synth::lbl_pkt_preset("synth-pins", pin.tcp_only, pin.seed);
  cfg.hours = 1.0;
  synth::StreamingPacketSynthesizer src(cfg, chunk_size, pin.shard);
  SynthDrain d;
  Fnv1a f;
  trace::PacketRecord prev;
  std::vector<trace::PacketRecord> chunk;
  while (src.next(chunk)) {
    for (const trace::PacketRecord& r : chunk) {
      f.mix(std::bit_cast<std::uint64_t>(r.time));
      f.mix(static_cast<std::uint64_t>(r.protocol));
      f.mix(r.conn_id);
      f.mix(r.from_originator);
      f.mix(r.payload_bytes);
      if (d.packets > 0 && r.time == prev.time) {
        ++d.ties;
        if (r.conn_id == prev.conn_id) ++d.ties_in_conn;
      }
      prev = r;
      ++d.packets;
    }
    if (keep) keep->insert(keep->end(), chunk.begin(), chunk.end());
  }
  d.digest = f.h;
  return d;
}

// `pin` with the drained count and digest, as a kSynthPins row.
std::string pin_row(const SynthPin& pin, const SynthDrain& d) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "    {\"%s\", %s, %llu, {%zu, %zu}, %llu,\n"
                "     0x%016llxull},\n",
                pin.label, pin.tcp_only ? "true" : "false",
                static_cast<unsigned long long>(pin.seed), pin.shard.index,
                pin.shard.count, static_cast<unsigned long long>(d.packets),
                static_cast<unsigned long long>(d.digest));
  return buf;
}

const SynthPin kSynthPins[] = {
    {"tcp_only seed 1", true, 1, {0, 1}, 204501,
     0xa78104b0a38cef18ull},
    {"tcp_only seed 2", true, 2, {0, 1}, 190374,
     0x026d0ac03da153d6ull},
    {"tcp_only seed 3", true, 3, {0, 1}, 203735,
     0x12d2264b06018bd9ull},
    {"all protocols seed 1", false, 1, {0, 1}, 308222,
     0x32439405b23883beull},
    {"all protocols seed 1 shard 1 of 3", false, 1, {1, 3}, 145641,
     0x2a4e0ecba4332326ull},
};

TEST(StreamingSynthPins, EveryStreamMatchesPinnedRecords) {
  for (const SynthPin& pin : kSynthPins) {
    SCOPED_TRACE(pin.label);
    for (const std::size_t chunk_size : {std::size_t{1}, std::size_t{4096}}) {
      const SynthDrain d = drain_pin(pin, chunk_size);
      std::printf("%s, chunk %zu: %llu packets, %llu equal-time neighbours "
                  "(%llu within one connection)\n",
                  pin.label, chunk_size,
                  static_cast<unsigned long long>(d.packets),
                  static_cast<unsigned long long>(d.ties),
                  static_cast<unsigned long long>(d.ties_in_conn));
      if (d.packets != pin.packets || d.digest != pin.digest)
        ADD_FAILURE() << "chunk " << chunk_size << " drained\n"
                      << pin_row(pin, d);
    }
  }
}

// The capture of the seed-1 tcp_only stream: its byte count and an
// FNV-1a digest of its bytes.
TEST(StreamingSynthPins, CaptureOfTheStreamMatchesPinnedBytes) {
  constexpr std::uint64_t kBytes = 14315094;
  constexpr std::uint64_t kDigest = 0x8565c60e42c51fb8ull;
  std::vector<trace::PacketRecord> records;
  drain_pin(kSynthPins[0], stream::kDefaultChunkSize, &records);
  const TempFile cap("synth_pins.pcap");
  ingest::write_pcap_for_records(cap.path, records);
  const std::string bytes = slurp(cap.path);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes)
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  if (bytes.size() != kBytes || h != kDigest) {
    char buf[120];
    std::snprintf(buf, sizeof buf,
                  "  constexpr std::uint64_t kBytes = %zu;\n"
                  "  constexpr std::uint64_t kDigest = 0x%016llxull;\n",
                  bytes.size(), static_cast<unsigned long long>(h));
    ADD_FAILURE() << "capture wrote\n" << buf;
  }
}

// --- End-to-end pipeline -----------------------------------------------

TEST(StreamPipeline, AnalyzeStreamMatchesAnalyzeBatchByteForByte) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/true);
  const trace::PacketTrace batch_trace = synth::synthesize_packet_trace(cfg);

  stream::PipelineOptions opt;
  opt.bin = 0.1;
  opt.protocol = trace::Protocol::kTelnet;
  opt.orig_data_only = true;
  opt.remove_outliers = true;
  opt.chunk_size = 2048;

  synth::StreamingPacketSynthesizer src(cfg, opt.chunk_size);
  const stream::PipelineResult streamed = stream::analyze_stream(src, opt);
  const stream::PipelineResult batch = stream::analyze_batch(batch_trace, opt);

  EXPECT_EQ(streamed.info.name, batch.info.name);
  EXPECT_EQ(streamed.packets, batch.packets);
  EXPECT_EQ(streamed.counts, batch.counts);
  EXPECT_EQ(streamed.vt.base_mean, batch.vt.base_mean);

  // The figure CSV is the artifact the acceptance criterion names:
  // byte-identical output from the two independent code paths.
  EXPECT_EQ(stream::vt_csv(streamed), stream::vt_csv(batch));
}

TEST(StreamPipeline, UnfilteredAggregateAlsoByteIdentical) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/false);
  const trace::PacketTrace batch_trace = synth::synthesize_packet_trace(cfg);

  stream::PipelineOptions opt;
  opt.bin = 0.5;

  synth::StreamingPacketSynthesizer src(cfg);
  const stream::PipelineResult streamed = stream::analyze_stream(src, opt);
  const stream::PipelineResult batch = stream::analyze_batch(batch_trace, opt);
  EXPECT_EQ(stream::vt_csv(streamed), stream::vt_csv(batch));
}

TEST(StreamPipeline, TooShortSeriesThrows) {
  trace::PacketTrace t("tiny", 0.0, 1.0);
  trace::PacketRecord r;
  r.time = 0.5;
  t.add(r);
  stream::TraceChunkSource src(t);
  stream::PipelineOptions opt;
  opt.bin = 0.5;  // 2 bins << 16
  EXPECT_THROW(stream::analyze_stream(src, opt), std::invalid_argument);
}

TEST(StreamPipeline, UnrepresentableBinGridThrowsNamingBinAndSpan) {
  trace::PacketTrace t("wide", 0.0, 900.0);
  trace::PacketRecord r;
  r.time = 0.5;
  t.add(r);
  stream::TraceChunkSource src(t);
  stream::PipelineOptions opt;
  opt.bin = 1e-300;  // 9e302 bins: no size_t holds that
  const auto expect_named = [&](auto analyze) {
    try {
      analyze(src, opt);
      ADD_FAILURE() << "no throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bin 1e-300 s over a 900 s span"),
                std::string::npos)
          << e.what();
    }
  };
  expect_named(stream::analyze_stream);
  EXPECT_THROW(stats::BinCountsAccumulator(0.0, 900.0, 1e-300),
               std::invalid_argument);
}

}  // namespace
}  // namespace wan
