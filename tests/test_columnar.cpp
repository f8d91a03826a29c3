// Columnar layout parity (ctest label `columnar`): the SoA chunk path
// must reproduce the batch PacketTrace path exactly — record for record
// through the adapters and filters, bit for bit through the span
// accumulators, and byte for byte in the figure CSVs the pipeline emits
// — for synthesized traces and for ingested capture fixtures, whose
// figures are also pinned (AnalysisGoldenPins).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/ingest/ingest.hpp"
#include "src/ingest/sources.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/variance_time.hpp"
#include "src/stream/chunk.hpp"
#include "src/stream/columnar.hpp"
#include "src/stream/columnar_filters.hpp"
#include "src/stream/pipeline.hpp"
#include "src/synth/stream_synth.hpp"
#include "src/synth/synthesizer.hpp"

namespace wan {
namespace {

std::string fixture(const std::string& name) {
  return std::string(WAN_TEST_DATA_DIR) + "/" + name;
}

void expect_same_records(const std::vector<trace::PacketRecord>& got,
                         const std::vector<trace::PacketRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].time, want[i].time) << "record " << i;
    ASSERT_EQ(got[i].protocol, want[i].protocol) << "record " << i;
    ASSERT_EQ(got[i].conn_id, want[i].conn_id) << "record " << i;
    ASSERT_EQ(got[i].from_originator, want[i].from_originator)
        << "record " << i;
    ASSERT_EQ(got[i].payload_bytes, want[i].payload_bytes) << "record " << i;
  }
}

// Drains a columnar source into one record sequence so parity checks
// compare flattened records, not chunk boundaries.
std::vector<trace::PacketRecord> drain(stream::PacketColumnSource& src) {
  std::vector<trace::PacketRecord> rows;
  stream::collect_columns(src).to_rows(rows);
  return rows;
}

// Same shape as test_stream's trace: several protocols, both
// directions, pure acks, and one bulk-outlier connection, so every
// selection predicate has matching and non-matching rows.
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
  for (int i = 0; i < 20; ++i)
    add(5.0 + i * 0.5, Protocol::kTelnet, 99, true, 100);  // bulk outlier
  t.sort_by_time();
  return t;
}

synth::PacketDatasetConfig small_pkt_config(bool tcp_only) {
  synth::PacketDatasetConfig cfg =
      synth::lbl_pkt_preset("columnar-test", tcp_only, /*seed=*/7);
  cfg.hours = 0.25;
  return cfg;
}

// --- AoS <-> SoA round trips --------------------------------------------

TEST(PacketColumns, RoundTripsEveryFieldAndRow) {
  const trace::PacketTrace t = make_test_trace();
  const stream::PacketColumns cols = stream::to_columns(t.records());
  ASSERT_EQ(cols.size(), t.size());

  // Per-row view.
  for (std::size_t i = 0; i < t.size(); ++i) {
    const trace::PacketRecord r = cols.row(i);
    const trace::PacketRecord& w = t.records()[i];
    ASSERT_EQ(r.time, w.time);
    ASSERT_EQ(r.protocol, w.protocol);
    ASSERT_EQ(r.conn_id, w.conn_id);
    ASSERT_EQ(r.from_originator, w.from_originator);
    ASSERT_EQ(r.payload_bytes, w.payload_bytes);
  }

  // Bulk transpose back.
  std::vector<trace::PacketRecord> back;
  cols.to_rows(back);
  expect_same_records(back, t.records());

  // The layout's reason to exist: fewer bytes per row than the padded
  // record, and byte_size reports the padding-free footprint.
  EXPECT_LT(stream::PacketColumns::kPacketColumnBytes,
            stream::PacketColumns::kPacketRowBytes);
  EXPECT_EQ(cols.byte_size(),
            cols.size() * stream::PacketColumns::kPacketColumnBytes);
}

// --- Adapters across chunk boundaries -----------------------------------

TEST(ColumnarAdapters, PacketRoundTripAcrossOddChunksWithReset) {
  const trace::PacketTrace t = make_test_trace();
  // Chunk size deliberately not a divisor of the record count.
  stream::TraceChunkSource rows(t, /*chunk_size=*/7);
  stream::ColumnsFromRows cols(rows);
  EXPECT_EQ(cols.info().name, t.name());
  expect_same_records(drain(cols), t.records());

  cols.reset();
  expect_same_records(drain(cols), t.records());
}

TEST(ColumnarAdapters, ColumnTableSourceSlicesTheWholeTable) {
  const trace::PacketTrace t = make_test_trace();
  const stream::PacketColumns table = stream::to_columns(t.records());
  stream::ColumnTableSource src(
      table, {t.name(), t.t_begin(), t.t_end()}, /*chunk_size=*/13);
  expect_same_records(drain(src), t.records());
  src.reset();
  expect_same_records(drain(src), t.records());
}

// --- Selection-vector kernels vs batch filters --------------------------

TEST(ColumnarKernels, SelectEqualGatherMatchesBatchProtocolFilter) {
  const trace::PacketTrace t = make_test_trace();
  const stream::PacketColumns cols = stream::to_columns(t.records());
  std::vector<std::uint32_t> sel;
  stream::select_equal(cols.protocol, trace::Protocol::kTelnet, sel);
  stream::PacketColumns out;
  stream::gather(cols, sel, out);
  std::vector<trace::PacketRecord> got;
  out.to_rows(got);
  expect_same_records(got, t.filter(trace::Protocol::kTelnet).records());
}

TEST(ColumnarKernels, SelectOrigDataMatchesBatchOriginatorFilter) {
  const trace::PacketTrace t = make_test_trace();
  const stream::PacketColumns cols = stream::to_columns(t.records());
  std::vector<std::uint32_t> sel;
  stream::select_orig_data(cols, sel);
  stream::PacketColumns out;
  stream::gather(cols, sel, out);
  std::vector<trace::PacketRecord> got;
  out.to_rows(got);
  expect_same_records(got, t.originator_data_packets().records());
}

TEST(ColumnarKernels, FusedSelectEqualsSelectThenRefine) {
  const trace::PacketTrace t = make_test_trace();
  const stream::PacketColumns cols = stream::to_columns(t.records());

  std::vector<std::uint32_t> fused;
  stream::select_protocol_orig_data(cols, trace::Protocol::kTelnet, fused);

  std::vector<std::uint32_t> staged;
  stream::select_equal(cols.protocol, trace::Protocol::kTelnet, staged);
  stream::refine_orig_data(cols, staged);

  EXPECT_EQ(fused, staged);
  ASSERT_FALSE(fused.empty());
  ASSERT_LT(fused.size(), cols.size());  // the predicate actually filters
}

// --- Columnar filter sources vs batch filters --------------------------

TEST(ColumnarFilters, ProtocolFilterMatchesBatchFilter) {
  const trace::PacketTrace t = make_test_trace();
  const trace::PacketTrace want = t.filter(trace::Protocol::kTelnet);

  stream::TraceChunkSource rows(t, /*chunk_size=*/11);
  stream::ColumnsFromRows cols(rows);
  stream::ColumnFilterSource col_f(cols, trace::Protocol::kTelnet,
                                   /*orig_data=*/false);
  EXPECT_EQ(col_f.info().name, want.name());
  expect_same_records(drain(col_f), want.records());
}

TEST(ColumnarFilters, OriginatorDataFilterMatchesBatchFilter) {
  const trace::PacketTrace t = make_test_trace();
  const trace::PacketTrace want = t.originator_data_packets();

  stream::TraceChunkSource rows(t, /*chunk_size=*/11);
  stream::ColumnsFromRows cols(rows);
  stream::ColumnFilterSource col_f(cols, std::nullopt, /*orig_data=*/true);
  EXPECT_EQ(col_f.info().name, want.name());
  expect_same_records(drain(col_f), want.records());
}

TEST(ColumnarFilters, FusedFilterMatchesChainedBatchFilters) {
  const trace::PacketTrace t = make_test_trace();
  const trace::PacketTrace want =
      t.filter(trace::Protocol::kTelnet).originator_data_packets();

  stream::TraceChunkSource rows(t, /*chunk_size=*/11);
  stream::ColumnsFromRows cols(rows);
  stream::ColumnFilterSource fused(cols, trace::Protocol::kTelnet,
                                   /*orig_data=*/true);
  // The fused source derives the same chained name and record sequence
  // the two batch filters produce.
  EXPECT_EQ(fused.info().name, want.name());
  expect_same_records(drain(fused), want.records());
}

TEST(ColumnarFilters, BulkOutlierSourceMatchesBatchFilterAndReplays) {
  const trace::PacketTrace t = make_test_trace();
  const trace::PacketTrace want = t.remove_bulk_outliers();
  ASSERT_LT(want.size(), t.size());  // conn 99 must actually be dropped

  stream::TraceChunkSource rows(t, /*chunk_size=*/11);
  stream::ColumnsFromRows cols(rows);
  stream::ColumnBulkOutlierSource col_f(cols);
  EXPECT_EQ(col_f.info().name, want.name());
  expect_same_records(drain(col_f), want.records());

  // reset() replays the stage's own rows.
  col_f.reset();
  expect_same_records(drain(col_f), want.records());
}

TEST(ColumnarFilters, FilterStackMatchesChainedBatchFilters) {
  const trace::PacketTrace t = make_test_trace();
  const trace::PacketTrace want = t.filter(trace::Protocol::kTelnet)
                                      .originator_data_packets()
                                      .remove_bulk_outliers();
  ASSERT_GT(want.size(), 0u);

  stream::PipelineOptions opt;
  opt.protocol = trace::Protocol::kTelnet;
  opt.orig_data_only = true;
  opt.remove_outliers = true;
  opt.chunk_size = 11;
  stream::TraceChunkSource rows(t, opt.chunk_size);
  stream::ColumnsFromRows cols(rows);
  stream::ColumnFilterStack stack(cols, opt);
  EXPECT_EQ(stack.info().name, want.name());
  expect_same_records(drain(stack), want.records());
}

// Forwards a column source and counts what its consumer asks of it.
class CountingColumns final : public stream::PacketColumnSource {
 public:
  explicit CountingColumns(stream::PacketColumnSource& inner)
      : inner_(inner) {}

  const stream::StreamInfo& info() const override { return inner_.info(); }
  bool next(stream::PacketColumns& chunk) override {
    const bool more = inner_.next(chunk);
    if (more) {
      rows += chunk.size();
    } else {
      ++ends;
    }
    return more;
  }
  void reset() override {
    ++resets;
    inner_.reset();
  }

  std::size_t rows = 0;    ///< rows delivered, over every pass
  std::size_t ends = 0;    ///< next() calls that found the end
  std::size_t resets = 0;

 private:
  stream::PacketColumnSource& inner_;
};

TEST(ColumnarFilters, OutlierAnalysisDrainsItsSourceOnceWithoutReset) {
  const trace::PacketTrace t = make_test_trace();
  stream::PipelineOptions opt;
  opt.bin = 1.0;
  opt.orig_data_only = true;
  opt.remove_outliers = true;
  opt.chunk_size = 11;

  stream::TraceChunkSource rows(t, opt.chunk_size);
  stream::ColumnsFromRows cols(rows);
  CountingColumns counted(cols);
  const stream::PipelineResult got = stream::analyze_columns(counted, opt);
  EXPECT_EQ(counted.rows, t.size());
  EXPECT_EQ(counted.ends, 1u);
  EXPECT_EQ(counted.resets, 0u);
  EXPECT_EQ(stream::vt_csv(got), stream::vt_csv(stream::analyze_batch(t, opt)));
}

TEST(ColumnarFilters, OutlierStageReplaysItsRowsWithoutTheUpstream) {
  const trace::PacketTrace t = make_test_trace();
  const trace::PacketTrace want = t.remove_bulk_outliers();
  stream::TraceChunkSource rows(t, /*chunk_size=*/11);
  stream::ColumnsFromRows cols(rows);
  CountingColumns counted(cols);
  stream::ColumnBulkOutlierSource stage(counted, /*chunk_size=*/7);
  expect_same_records(drain(stage), want.records());
  stage.reset();
  expect_same_records(drain(stage), want.records());
  EXPECT_EQ(counted.rows, t.size());
  EXPECT_EQ(counted.resets, 0u);
}

// Trace files carry arbitrary 32-bit conn ids. The detector's table is
// sized by the connections it sees, not by the largest id, and the
// columnar analysis of such a trace matches the batch path.
TEST(ColumnarFilters, OutlierStageTakesAnyConnIdInSmallMemory) {
  constexpr std::uint32_t kBig = 4000000000u;
  trace::PacketTrace t("ids", 0.0, 100.0);
  for (int i = 0; i < 50; ++i)  // 50 bytes of typing over 98 s
    t.add({i * 2.0, trace::Protocol::kTelnet, 1, true, 1});
  for (int i = 0; i < 20; ++i)  // a 2000-byte blast in 9.5 s
    t.add({10.0 + i * 0.5, trace::Protocol::kTelnet, kBig, true, 100});
  t.sort_by_time();

  trace::BulkOutlierDetector det;
  for (const trace::PacketRecord& r : t.records()) det.observe(r);
  EXPECT_EQ(det.finish(), 1u);
  EXPECT_TRUE(det.is_outlier(kBig));
  EXPECT_FALSE(det.is_outlier(1));
  EXPECT_FALSE(det.is_outlier(2));  // never observed
  EXPECT_EQ(det.slots(), 16u);

  stream::PipelineOptions opt;
  opt.bin = 1.0;
  opt.remove_outliers = true;
  stream::TraceChunkSource rows(t, /*chunk_size=*/8);
  const stream::PipelineResult columnar = stream::analyze_stream(rows, opt);
  EXPECT_EQ(columnar.packets, 50u);
  EXPECT_EQ(stream::vt_csv(columnar),
            stream::vt_csv(stream::analyze_batch(t, opt)));
}

// A connection's verdict depends on its bytes and its span, not on where
// the clock starts: shifted by -2000 s, so that every time is negative,
// a trace loses the same connections on the batch and columnar paths.
TEST(ColumnarFilters, OutlierVerdictIgnoresWhereTimeStarts) {
  const auto make = [](double shift) {
    trace::PacketTrace t("shift", shift, 1400.0 + shift);
    const auto add = [&](double time, std::uint32_t conn, bool orig,
                         std::uint16_t payload) {
      t.add({time + shift, trace::Protocol::kTelnet, conn, orig, payload});
    };
    for (int i = 0; i < 12; ++i) {
      add(1000.0 + i * (0.5 / 11), 1, true, 100);  // 1200 B in 0.5 s
      add(1000.01 + i * (0.5 / 11), 1, false, 0);
      add(100.0 + i * 25.0, 2, true, 100);  // 1200 B in 275 s
    }
    add(700.0, 3, true, 10);
    t.sort_by_time();
    return t;
  };
  const auto conns = [](const std::vector<trace::PacketRecord>& records) {
    std::set<std::uint32_t> ids;
    for (const trace::PacketRecord& r : records) ids.insert(r.conn_id);
    return ids;
  };
  const std::set<std::uint32_t> kept = {2, 3};
  for (const double shift : {0.0, -2000.0}) {
    SCOPED_TRACE("shift " + std::to_string(shift));
    const trace::PacketTrace t = make(shift);
    EXPECT_EQ(conns(t.remove_bulk_outliers().records()), kept);

    stream::TraceChunkSource rows(t, /*chunk_size=*/5);
    stream::ColumnsFromRows cols(rows);
    stream::ColumnBulkOutlierSource col_stage(cols);
    EXPECT_EQ(conns(drain(col_stage)), kept);
  }
}

// --- Span accumulator forms vs per-element forms ------------------------

TEST(SpanAccumulators, BinCountsSpanBitIdenticalIncludingEdges) {
  const double t0 = 2.0, t1 = 12.0, bin = 0.7;
  // Every edge the scalar predicate distinguishes: below range, exactly
  // t0, interior, exactly on a bin edge, just under t1, exactly t1
  // (excluded), above range, and NaN (excluded).
  std::vector<double> times = {1.9, 2.0,  2.69, 2.7,  5.3,
                               t1 - 1e-9, 12.0, 13.5, 2.0,
                               std::numeric_limits<double>::quiet_NaN()};
  for (int i = 0; i < 1000; ++i)
    times.push_back(t0 + 0.01 * static_cast<double>(i));

  stats::BinCountsAccumulator scalar(t0, t1, bin);
  for (double t : times) scalar.add(t);

  stats::BinCountsAccumulator spanned(t0, t1, bin);
  spanned.add(std::span<const double>(times));

  EXPECT_EQ(spanned.counts(), scalar.counts());
  EXPECT_EQ(stats::bin_counts(times, t0, t1, bin), scalar.counts());
  // Six listed times and the 1000 generated ones are in range.
  double total = 0.0;
  for (double c : scalar.counts()) total += c;
  EXPECT_EQ(total, 1006.0);
}

TEST(SpanAccumulators, BinCountsSpanMatchesAcrossChunkSplits) {
  const trace::PacketTrace t = make_test_trace();
  const std::vector<double> times = t.packet_times();
  stats::BinCountsAccumulator scalar(t.t_begin(), t.t_end(), 0.25);
  for (double x : times) scalar.add(x);

  stats::BinCountsAccumulator chunked(t.t_begin(), t.t_end(), 0.25);
  std::span<const double> rest(times);
  while (!rest.empty()) {
    const std::size_t n = std::min<std::size_t>(37, rest.size());
    chunked.add(rest.subspan(0, n));
    rest = rest.subspan(n);
  }
  EXPECT_EQ(chunked.counts(), scalar.counts());
}

TEST(SpanAccumulators, VtMomentsBurstLullSpanFormsBitIdentical) {
  const trace::PacketTrace t = make_test_trace();
  const std::vector<double> counts =
      stats::bin_counts(t.packet_times(), t.t_begin(), t.t_end(), 0.1);
  const auto levels = stats::default_aggregation_levels(counts.size());

  stats::VtAccumulator vt_scalar(levels), vt_span(levels);
  stats::MomentAccumulator mo_scalar, mo_span;
  stats::BurstLullAccumulator bl_scalar, bl_span;
  for (double c : counts) {
    vt_scalar.push(c);
    mo_scalar.push(c);
    bl_scalar.push(c);
  }
  vt_span.push(std::span<const double>(counts));
  mo_span.push(std::span<const double>(counts));
  bl_span.push(std::span<const double>(counts));

  const stats::VarianceTimePlot a = vt_scalar.finish(), b = vt_span.finish();
  ASSERT_EQ(a.points.size(), b.points.size());
  EXPECT_EQ(a.base_mean, b.base_mean);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].variance, b.points[i].variance);
    EXPECT_EQ(a.points[i].normalized, b.points[i].normalized);
  }
  EXPECT_EQ(mo_scalar.mean(), mo_span.mean());
  EXPECT_EQ(mo_scalar.variance_sample(), mo_span.variance_sample());
  EXPECT_EQ(bl_scalar.finish().burst_lengths, bl_span.finish().burst_lengths);
  EXPECT_EQ(bl_scalar.finish().lull_lengths, bl_span.finish().lull_lengths);
}

TEST(SpanAccumulators, InterarrivalAccumulatorBridgesChunkBoundaries) {
  const trace::PacketTrace t = make_test_trace();
  const std::vector<double> times = t.packet_times();
  const std::vector<double> want = stats::interarrivals(times);

  stats::InterarrivalAccumulator acc;
  std::span<const double> rest(times);
  while (!rest.empty()) {
    const std::size_t n = std::min<std::size_t>(23, rest.size());
    acc.push_times(rest.subspan(0, n));
    rest = rest.subspan(n);
  }
  EXPECT_EQ(acc.gaps(), want);
}

// --- End-to-end pipeline parity -----------------------------------------

TEST(ColumnarPipeline, FilteredAnalysisByteIdenticalToBatch) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/true);
  const trace::PacketTrace batch_trace = synth::synthesize_packet_trace(cfg);

  stream::PipelineOptions opt;
  opt.bin = 0.1;
  opt.protocol = trace::Protocol::kTelnet;
  opt.orig_data_only = true;
  opt.remove_outliers = true;
  opt.chunk_size = 2048;

  synth::StreamingPacketSynthesizer src(cfg, opt.chunk_size);
  const stream::PipelineResult columnar = stream::analyze_stream(src, opt);
  const stream::PipelineResult batch = stream::analyze_batch(batch_trace, opt);

  EXPECT_EQ(stream::vt_csv(columnar), stream::vt_csv(batch));
  EXPECT_EQ(columnar.packets, batch.packets);
  EXPECT_EQ(columnar.counts, batch.counts);
}

TEST(ColumnarPipeline, UnfilteredAnalysisByteIdenticalToBatch) {
  const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/false);
  const trace::PacketTrace batch_trace = synth::synthesize_packet_trace(cfg);

  stream::PipelineOptions opt;
  opt.bin = 0.5;

  synth::StreamingPacketSynthesizer src(cfg);
  const stream::PipelineResult columnar = stream::analyze_stream(src, opt);
  const stream::PipelineResult batch = stream::analyze_batch(batch_trace, opt);

  EXPECT_EQ(stream::vt_csv(columnar), stream::vt_csv(batch));
}

TEST(ColumnarPipeline, IngestedPcapFixtureByteIdenticalToBatch) {
  // The capture fixture exercises the real ingestion front end (pcap
  // decode + flow reconstruction) feeding both layouts: the row source,
  // analyzed bridged to columns and collected for the batch path, and
  // the native column source the tools open.
  ingest::MmapPcapPacketSource src(fixture("tiny_le.pcap"),
                                   ingest::ParseMode::kStrict);
  stream::PipelineOptions opt;
  opt.bin = 0.1;  // the ~5 s fixture span comfortably exceeds 16 bins

  const stream::PipelineResult columnar = stream::analyze_stream(src, opt);
  src.reset();
  const stream::PipelineResult batch =
      stream::analyze_batch(stream::collect(src), opt);
  ingest::PcapColumnSource native(fixture("tiny_le.pcap"),
                                  ingest::ParseMode::kStrict);
  const stream::PipelineResult direct = stream::analyze_columns(native, opt);

  ASSERT_GT(columnar.packets, 0u);
  for (const stream::PipelineResult* r : {&columnar, &direct}) {
    EXPECT_EQ(r->packets, batch.packets);
    EXPECT_EQ(r->bin, batch.bin);
    EXPECT_EQ(r->counts, batch.counts);
    EXPECT_EQ(stream::vt_csv(*r), stream::vt_csv(batch));
  }
}

// --- Golden figure-CSV pins ---------------------------------------------
//
// The columnar and batch paths share trace::BulkOutlierDetector,
// BinCountsAccumulator::add(span) (stats::bin_counts calls it) and the
// exact variance-time pass, so a change to any of those moves both sides
// of every parity test together. These pins hold the figures themselves.

// The 0.25 h seed-7 lbl_pkt_preset trace (all protocols), in place of a
// fixture file.
constexpr const char* kSynthTrace = "synth 0.25 h seed 7";

// One analysis's figure: surviving packets, base_mean's bits and an
// FNV-1a digest of the vt_csv bytes, the fixture directory cut from the
// name so the digest holds in any checkout.
struct FigurePin {
  std::uint64_t packets = 0;
  std::uint64_t base_mean_bits = 0;
  std::uint64_t vt_csv_digest = 0;
  bool operator==(const FigurePin&) const = default;
};

// The option sets each trace is analyzed under: unfiltered; --filtered
// (originator data, bulk outliers removed); and TELNET before the
// --filtered stages.
constexpr int kPinFilters = 3;
stream::PipelineOptions pin_options(double bin, int filters) {
  stream::PipelineOptions opt;
  opt.bin = bin;
  if (filters >= 1) {
    opt.orig_data_only = true;
    opt.remove_outliers = true;
  }
  if (filters == 2) opt.protocol = trace::Protocol::kTelnet;
  return opt;
}

// A trace (a packet fixture read in one parse mode, or kSynthTrace) at
// one bin width, with its figure under each option set.
// `throws`: every path refuses its range as too short for 16 bins.
struct AnalysisPin {
  const char* trace;
  ingest::ParseMode mode;
  double bin;
  bool throws;
  FigurePin figures[kPinFilters];
};

FigurePin figure_of(stream::PipelineResult r) {
  const std::string dir = std::string(WAN_TEST_DATA_DIR) + "/";
  const std::size_t at = r.info.name.find(dir);
  if (at != std::string::npos) r.info.name.erase(at, dir.size());
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : stream::vt_csv(r))
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return {r.packets, std::bit_cast<std::uint64_t>(r.vt.base_mean), h};
}

// The figure `analyze` returns, or nullopt when it refuses the range.
template <typename Analyze>
std::optional<FigurePin> try_figure(Analyze&& analyze) {
  try {
    return figure_of(analyze());
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

// `pin` with the computed figures, as a kAnalysisPins row.
std::string pin_row(const AnalysisPin& pin) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "    {\"%s\", ParseMode::%s, %g, %s,",
                pin.trace,
                pin.mode == ingest::ParseMode::kStrict ? "kStrict"
                                                        : "kLenient",
                pin.bin, pin.throws ? "true" : "false");
  std::string row = buf;
  if (pin.throws) return row + " {}},\n";
  for (int f = 0; f < kPinFilters; ++f) {
    const FigurePin& p = pin.figures[f];
    std::snprintf(buf, sizeof buf,
                  "\n     %s{%llu, 0x%016llxull, 0x%016llxull}%s",
                  f == 0 ? "{" : " ",
                  static_cast<unsigned long long>(p.packets),
                  static_cast<unsigned long long>(p.base_mean_bits),
                  static_cast<unsigned long long>(p.vt_csv_digest),
                  f + 1 < kPinFilters ? "," : "}},\n");
    row += buf;
  }
  return row;
}

using ingest::ParseMode;

// Every packet fixture and parse mode that decodes (kPacketPins in
// test_ingest.cpp), each at a bin giving at least 16 bins of its range,
// and the synthesized trace. badmagic.pcap's lenient read holds no
// packet and an empty range.
const AnalysisPin kAnalysisPins[] = {
    {"tiny_le.pcap", ParseMode::kStrict, 0.1, false,
     {{13, 0x3fd0505050505050ull, 0x1ce0a81dbabf4285ull},
      {4, 0x3fb4141414141414ull, 0xebebfaa3d056fef5ull},
      {1, 0x3f94141414141414ull, 0x07277894fe274ea4ull}}},
    {"tiny_le.pcap", ParseMode::kLenient, 0.1, false,
     {{13, 0x3fd0505050505050ull, 0x1ce0a81dbabf4285ull},
      {4, 0x3fb4141414141414ull, 0xebebfaa3d056fef5ull},
      {1, 0x3f94141414141414ull, 0x07277894fe274ea4ull}}},
    {"tiny_be.pcap", ParseMode::kStrict, 0.1, false,
     {{13, 0x3fd0505050505050ull, 0xc05a61fec5a820b7ull},
      {4, 0x3fb4141414141414ull, 0xbd271224d67c9d8full},
      {1, 0x3f94141414141414ull, 0xe0930c3b74f4d736ull}}},
    {"tiny_be.pcap", ParseMode::kLenient, 0.1, false,
     {{13, 0x3fd0505050505050ull, 0xc05a61fec5a820b7ull},
      {4, 0x3fb4141414141414ull, 0xbd271224d67c9d8full},
      {1, 0x3f94141414141414ull, 0xe0930c3b74f4d736ull}}},
    {"tiny_nsec.pcap", ParseMode::kStrict, 0.1, false,
     {{13, 0x3fd0505050505050ull, 0x034909c02559633dull},
      {4, 0x3fb4141414141414ull, 0x5803edbf1b68b08dull},
      {1, 0x3f94141414141414ull, 0xcd71851146428c8cull}}},
    {"tiny_nsec.pcap", ParseMode::kLenient, 0.1, false,
     {{13, 0x3fd0505050505050ull, 0x034909c02559633dull},
      {4, 0x3fb4141414141414ull, 0x5803edbf1b68b08dull},
      {1, 0x3f94141414141414ull, 0xcd71851146428c8cull}}},
    {"tiny_ooo.pcap", ParseMode::kLenient, 0.1, false,
     {{13, 0x3fd0505050505050ull, 0x54789329997dfbadull},
      {4, 0x3fb4141414141414ull, 0x789aed6e6eab10fdull},
      {1, 0x3f94141414141414ull, 0x5a0160070c090e9cull}}},
    {"tiny_vlan.pcap", ParseMode::kStrict, 0.1, false,
     {{13, 0x3fd0505050505050ull, 0x87ac4209ccace693ull},
      {4, 0x3fb4141414141414ull, 0xc647ed555900c2ebull},
      {1, 0x3f94141414141414ull, 0x84d419705e4702d2ull}}},
    {"tiny_vlan.pcap", ParseMode::kLenient, 0.1, false,
     {{13, 0x3fd0505050505050ull, 0x87ac4209ccace693ull},
      {4, 0x3fb4141414141414ull, 0xc647ed555900c2ebull},
      {1, 0x3f94141414141414ull, 0x84d419705e4702d2ull}}},
    {"trunc.pcap", ParseMode::kLenient, 0.1, false,
     {{12, 0x3fd2bb512bb512bbull, 0xa808067cbd43ebc3ull},
      {4, 0x3fb8f9c18f9c18faull, 0xafe242d448c16ce4ull},
      {1, 0x3f98f9c18f9c18faull, 0x04deacf69518a6e7ull}}},
    {"badmagic.pcap", ParseMode::kLenient, 0.1, true, {}},
    {"sample.lbl-pkt", ParseMode::kStrict, 0.1, false,
     {{7, 0x3fc1919191919192ull, 0x9d5f6685b9d57618ull},
      {1, 0x3f94141414141414ull, 0x2ea61a31e3d63a9bull},
      {1, 0x3f94141414141414ull, 0x786477dc9836b100ull}}},
    {"sample.lbl-pkt", ParseMode::kLenient, 0.1, false,
     {{7, 0x3fc1919191919192ull, 0x9d5f6685b9d57618ull},
      {1, 0x3f94141414141414ull, 0x2ea61a31e3d63a9bull},
      {1, 0x3f94141414141414ull, 0x786477dc9836b100ull}}},
    {"corrupt.lbl-pkt", ParseMode::kLenient, 0.001, false,
     {{2, 0x3fb0842108421084ull, 0x4da65234ba24062cull},
      {0, 0x0000000000000000ull, 0x893c2b08787a58adull},
      {0, 0x0000000000000000ull, 0xcbf104d0c2bb4ca2ull}}},
    {"synth 0.25 h seed 7", ParseMode::kStrict, 0.1, false,
     {{36204, 0x40101735ee402bb1ull, 0xbd2084acaa85b6abull},
      {6871, 0x3fe86e230b2674f7ull, 0x97d6bf02d6055102ull},
      {5113, 0x3fe22df75a56ed1dull, 0x6d1d9d81a85fea56ull}}},
};

// Each row's columnar analysis (the tools' path) against its pins, and
// the batch reference against it. A row whose pins differ
// prints the computed row, ready to paste over the old one.
TEST(AnalysisGoldenPins, VtCsvMatchesPinnedFigures) {
  for (const AnalysisPin& pin : kAnalysisPins) {
    SCOPED_TRACE(std::string(pin.trace) +
                 (pin.mode == ParseMode::kStrict ? " strict" : " lenient"));
    const bool synth = std::string(pin.trace) == kSynthTrace;
    const synth::PacketDatasetConfig cfg = small_pkt_config(/*tcp_only=*/false);
    const std::string path = fixture(pin.trace);
    const ingest::IngestFormat format =
        path.ends_with(".pcap") ? ingest::IngestFormat::kPcap
                                : ingest::IngestFormat::kLblPkt;
    ingest::IngestOptions iopt;
    iopt.mode = pin.mode;
    const trace::PacketTrace whole = [&] {
      if (synth) return synth::synthesize_packet_trace(cfg);
      return stream::collect(*ingest::open_packet_source(path, format, iopt));
    }();

    AnalysisPin got = pin;
    for (int f = 0; f < kPinFilters; ++f) {
      SCOPED_TRACE("options " + std::to_string(f));
      const stream::PipelineOptions opt = pin_options(pin.bin, f);
      const std::optional<FigurePin> columnar = try_figure([&] {
        if (synth) {
          synth::StreamingPacketSynthesizer src(cfg);
          return stream::analyze_stream(src, opt);
        }
        const auto src = ingest::open_packet_column_source(path, format, iopt);
        return stream::analyze_columns(*src, opt);
      });
      const std::optional<FigurePin> batch =
          try_figure([&] { return stream::analyze_batch(whole, opt); });
      EXPECT_EQ(batch, columnar);
      if (f == 0) got.throws = !columnar;
      got.figures[f] = columnar.value_or(FigurePin{});
    }
    const bool pinned =
        got.throws == pin.throws &&
        std::equal(std::begin(got.figures), std::end(got.figures),
                   std::begin(pin.figures));
    EXPECT_TRUE(pinned) << "computed:\n" << pin_row(got);
  }
}

}  // namespace
}  // namespace wan
