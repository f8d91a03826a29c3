// Ingest readers behind the streaming layer's contracts, so real
// captures flow through the same src/stream pipeline as synthesized
// traces, in chunk-bounded memory.
//
// Packets: one source per capture format, CaptureColumnSource<Reader>,
// folds every decoded packet through the FlowTable straight into
// PacketColumns, with no PacketRecord row chunk in between:
//   * PcapColumnSource   (MmapPcapReader) — the mmap'd batch decode;
//   * LblPktColumnSource (LblPktReader)   — ITA lbl-pkt lines.
// Both learn their time range, info(), by the same lazy rule (see
// there). A prescan's ledger is discarded on its rewind — stats()
// reflects the emission pass only, so callers see each defect counted
// exactly once.
//
// Connections have no chunk source: every connection analysis is a
// whole-trace algorithm, so read_conn_trace loads a ConnTrace whole, in
// one pass over the input.
#pragma once

#include <cstddef>
#include <string>

#include "src/ingest/flow_table.hpp"
#include "src/ingest/ingest_stats.hpp"
#include "src/ingest/mmap_source.hpp"
#include "src/ingest/ita_ascii.hpp"
#include "src/stream/chunk.hpp"
#include "src/stream/columnar.hpp"
#include "src/trace/conn_trace.hpp"

namespace wan::ingest {

/// Columnar packet source that also carries an ingest error ledger.
class IngestColumnSource : public stream::PacketColumnSource {
 public:
  virtual const IngestStats& stats() const = 0;
};

/// A capture's packets end to end: each record decodes (in place, for
/// the mapped pcap reader) and folds through the FlowTable straight
/// into SoA columns, so the rows carry conn ids and port-classified
/// protocols. Reader is MmapPcapReader or LblPktReader; analyze_columns
/// drains either without a transpose.
///
/// The constructor opens the input (the pcap reader also reads the
/// global header; strict mode throws IngestError on a bad one); record
/// defects surface at the first info() or next(). info()'s range is
/// [min packet time, max + one tick), learned one of two ways, with the
/// same bits:
///   * a pass that runs to the end folds the decoded times as it emits,
///     so info() after it costs nothing — the filtered analysis and the
///     strict monitor replay decode their capture once, so they read a
///     pipe opened by name too;
///   * info() before the first next() (or after reset() of an
///     unfinished pass) prescans every record and rewinds, discarding
///     the prescan's ledger — the unfiltered and windowed analyses, the
///     lenient monitor replay and `wantraffic_ingest pkt` need the range
///     first.
/// info() in the middle of the pass that learns it throws
/// std::logic_error.
template <typename Reader>
class CaptureColumnSource final : public IngestColumnSource {
 public:
  CaptureColumnSource(const std::string& path, ParseMode mode,
                      FlowTableConfig flow = {},
                      std::size_t chunk_size = stream::kDefaultChunkSize);

  const stream::StreamInfo& info() const override;
  bool next(stream::PacketColumns& chunk) override;
  void reset() override;

  const IngestStats& stats() const override { return reader_.stats(); }
  const FlowTable& flow_table() const { return table_; }

 private:
  enum class Range { kUnknown, kLearning, kKnown };

  mutable Reader reader_;  // info() may prescan and rewind it
  FlowTable table_;
  mutable stream::StreamInfo info_;
  mutable Range range_ = Range::kUnknown;
  bool any_ = false;  // the learning pass's fold so far
  double lo_ = 0.0;
  double hi_ = 0.0;
  std::size_t chunk_size_;
};

using PcapColumnSource = CaptureColumnSource<MmapPcapReader>;
using LblPktColumnSource = CaptureColumnSource<LblPktReader>;

/// Loads one input's connections whole, in one pass, sorted by start
/// time (ready for poisson_report / find_ftp_bursts).
///   * MmapPcapReader, LblPktReader: every packet folds through one
///     FlowTable; connections are taken as they close, and the flows
///     still open are flushed at end of input. The range is
///     [min packet time, max packet time + one tick).
///   * LblConnReader: the log's records, read directly; `flow` is
///     unused. The range is [min start, max(start + duration)).
/// `stats_out`, when non-null, receives the reader's ledger. Strict
/// mode throws IngestError on the first defect.
template <typename Reader>
trace::ConnTrace read_conn_trace(const std::string& path, ParseMode mode,
                                 FlowTableConfig flow = {},
                                 IngestStats* stats_out = nullptr);

}  // namespace wan::ingest
