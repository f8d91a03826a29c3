#include "src/stream/pipeline.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

namespace wan::stream {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

PipelineResult analyze_stream(PacketChunkSource& source,
                              const PipelineOptions& options) {
  ColumnsFromRows columns(source);
  return analyze_columns(columns, options);
}

ColumnFilterStack::ColumnFilterStack(PacketColumnSource& inner,
                                     const PipelineOptions& options)
    : top_(&inner) {
  // The protocol and originator-data predicates fuse into one
  // ColumnFilterSource (same record sequence and derived name as
  // stacking them; one selection pass + one gather).
  if (options.protocol || options.orig_data_only) {
    filter_.emplace(*top_, options.protocol, options.orig_data_only);
    top_ = &*filter_;
  }
  if (options.remove_outliers) {
    no_outliers_.emplace(*top_, options.chunk_size);
    top_ = &*no_outliers_;
  }
}

CountTail::CountTail(StreamInfo info, double bin)
    : info_(std::move(info)), bin_(bin) {
  if (bin <= 0.0 || info_.t_end <= info_.t_begin ||
      stats::bin_grid_size(info_.t_begin, info_.t_end, bin) < 16)
    throw std::invalid_argument("analyze_stream: series too short");
}

stats::BinCountsAccumulator CountTail::grid() const {
  return {info_.t_begin, info_.t_end, bin_};
}

PipelineResult CountTail::finish(std::uint64_t packets,
                                 std::vector<double> counts) const {
  PipelineResult result;
  result.info = info_;
  result.bin = bin_;
  result.packets = packets;
  result.counts = std::move(counts);
  result.vt = stats::variance_time_plot(result.counts);
  return result;
}

PipelineResult analyze_columns(PacketColumnSource& source,
                               const PipelineOptions& options) {
  ColumnFilterStack filtered(source, options);
  const CountTail tail(filtered.info(), options.bin);
  stats::BinCountsAccumulator bins = tail.grid();
  std::uint64_t packets = 0;
  PacketColumns chunk;
  while (filtered.next(chunk)) {
    packets += chunk.size();
    bins.add(std::span<const double>(chunk.time));
  }
  return tail.finish(packets, bins.take());
}

PipelineResult analyze_batch(const trace::PacketTrace& trace,
                             const PipelineOptions& options) {
  const trace::PacketTrace* t = &trace;
  trace::PacketTrace filtered;
  if (options.protocol) {
    filtered = t->filter(*options.protocol);
    t = &filtered;
  }
  if (options.orig_data_only) {
    filtered = t->originator_data_packets();
    t = &filtered;
  }
  if (options.remove_outliers) {
    filtered = t->remove_bulk_outliers();
    t = &filtered;
  }

  // The genuinely batch implementations (span statistics over the full
  // materialized series) — NOT the streaming accumulators — so the
  // parity tests compare two independent code paths end to end.
  PipelineResult result;
  result.info = {t->name(), t->t_begin(), t->t_end()};
  result.bin = options.bin;
  result.packets = t->size();
  const std::vector<double> times = t->packet_times();
  result.counts = stats::bin_counts(times, result.info.t_begin,
                                    result.info.t_end, options.bin);
  result.vt = stats::variance_time_plot(result.counts);
  return result;
}

std::string vt_csv(const PipelineResult& result) {
  std::string out = "# variance-time name=" + result.info.name +
                    " bin=" + fmt_double(result.bin) +
                    " packets=" + std::to_string(result.packets) +
                    " base_mean=" + fmt_double(result.vt.base_mean) + "\n";
  out += "m,variance,normalized,n_blocks\n";
  for (const stats::VtPoint& p : result.vt.points) {
    out += std::to_string(p.m) + ',' + fmt_double(p.variance) + ',' +
           fmt_double(p.normalized) + ',' + std::to_string(p.n_blocks) + '\n';
  }
  return out;
}

}  // namespace wan::stream
