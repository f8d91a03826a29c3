// End-to-end count-process analysis over a packet stream: Section-IV
// filters → binned counts → variance-time plot, reading the source
// once, with no reset. The bulk-outlier stage holds the rows that reach it (16 bytes
// each) until it has every connection's totals; everything else streams
// in chunk-bounded memory. Burst/lull runs and count moments are the
// windowed engine's, which keeps its own accumulators.
//
// analyze_columns is the one production implementation; analyze_batch
// is its end-to-end reference, the same analysis on an in-memory
// PacketTrace through the PacketTrace filters and the span-based
// statistics. Both bin with the same BinCounts arithmetic and plot the
// finished count series with variance_time_plot, so their results — and
// the figure CSVs rendered from them — are byte-identical. The
// `stream`- and `columnar`-labeled tests pin this, and
// AnalysisGoldenPins (test_columnar) pins the figures themselves, which
// a change to the arithmetic both paths share would move together.
//
// Every columnar entry point (analyze_columns, analyze_sharded_sources,
// analyze_windowed) filters through one ColumnFilterStack, and all but
// the windowed one end in one CountTail.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/stats/counting.hpp"
#include "src/stats/variance_time.hpp"
#include "src/stream/chunk.hpp"
#include "src/stream/columnar.hpp"
#include "src/stream/columnar_filters.hpp"

namespace wan::stream {

struct PipelineOptions {
  double bin = 0.1;  ///< count-process bin width, seconds

  // Filters, applied in this order (matching the batch path).
  std::optional<trace::Protocol> protocol;
  bool orig_data_only = false;
  /// Section IV's bulk-outlier rule, at trace::kBulkOutlierMaxBytes and
  /// trace::kBulkOutlierMaxRate.
  bool remove_outliers = false;

  std::size_t chunk_size = kDefaultChunkSize;
};

struct PipelineResult {
  StreamInfo info;  ///< after filters (name carries the filter suffixes)
  double bin = 0.1;
  std::uint64_t packets = 0;  ///< records surviving the filters
  std::vector<double> counts;
  stats::VarianceTimePlot vt;
};

/// The Section-IV filter stack `options` configures over a column
/// source, in the batch path's order: protocol and originator-data fused
/// in one ColumnFilterSource, then the buffering ColumnBulkOutlierSource,
/// which emits `options.chunk_size`-row chunks; an option left off adds
/// no stage. With the outlier stage, info() reads the whole upstream
/// once. Non-owning of `inner`; the stages live inside the stack, so it
/// is neither copyable nor movable.
class ColumnFilterStack final : public PacketColumnSource {
 public:
  ColumnFilterStack(PacketColumnSource& inner, const PipelineOptions& options);
  ColumnFilterStack(const ColumnFilterStack&) = delete;
  ColumnFilterStack& operator=(const ColumnFilterStack&) = delete;

  const StreamInfo& info() const override { return top_->info(); }
  bool next(PacketColumns& chunk) override { return top_->next(chunk); }
  void reset() override { top_->reset(); }

 private:
  std::optional<ColumnFilterSource> filter_;
  std::optional<ColumnBulkOutlierSource> no_outliers_;
  PacketColumnSource* top_;
};

/// The count tail of the columnar entry points. The constructor is the
/// 16-bin guard: [info.t_begin, info.t_end) must hold at least 16 bins
/// of `bin` seconds (variance_time_plot's floor), else it throws
/// std::invalid_argument ("analyze_stream: series too short", or
/// bin_grid_size's message for a grid no size_t counts), so a
/// fixed-grid caller fails before binning a record (with the outlier
/// stage, after the stage has read its input). finish() plots the
/// whole count series with variance_time_plot (its exact pass, counts
/// being whole numbers); the plot is the only work it does on the series.
class CountTail {
 public:
  CountTail(StreamInfo info, double bin);

  /// An empty accumulator on the guarded grid.
  stats::BinCountsAccumulator grid() const;

  /// The result for `packets` surviving records binned into `counts`, a
  /// series on this grid.
  PipelineResult finish(std::uint64_t packets,
                        std::vector<double> counts) const;

 private:
  StreamInfo info_;
  double bin_;
};

/// Streams the source through the configured filters and accumulators.
/// Throws std::invalid_argument if the count series would be shorter
/// than 16 bins (same limit as variance_time_plot).
///
/// A thin wrapper: the row source is adapted through ColumnsFromRows
/// and analyzed by analyze_columns.
PipelineResult analyze_stream(PacketChunkSource& source,
                              const PipelineOptions& options = {});

/// The columnar analysis path: ColumnFilterStack, bin counts fed whole
/// time columns (BinCountsAccumulator::add(span)), then CountTail. Same
/// filter order, same arithmetic per element, so same bytes out as
/// analyze_batch.
PipelineResult analyze_columns(PacketColumnSource& source,
                               const PipelineOptions& options = {});

/// The batch reference: same analysis via PacketTrace filters and the
/// span-based statistics.
PipelineResult analyze_batch(const trace::PacketTrace& trace,
                             const PipelineOptions& options = {});

/// Renders the variance-time plot as a figure CSV. Doubles print with
/// %.17g (round-trip exact), so byte-equal CSVs mean bit-equal plots.
std::string vt_csv(const PipelineResult& result);

}  // namespace wan::stream
