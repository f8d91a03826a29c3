// Ingest readers behind the streaming layer's contracts, so real
// captures flow through the same src/stream pipeline as synthesized
// traces, in chunk-bounded memory.
//
// A packet source learns its trace's time range, info(), by a prescan
// that decodes the file and rewinds: the row sources in their
// constructor, PcapColumnSource only when asked before its first record
// (see there). The prescan's ledger is discarded on the rewind —
// stats() reflects the emission pass only, so callers see each defect
// counted exactly once.
//
//   * PcapColumnSource — the pcap path: mmap'd batch decode folded
//     through the FlowTable straight into PacketColumns, no
//     PacketRecord row chunk in between.
//   * PacketSourceImpl<MmapPcapReader / LblPktReader> — packets through
//     the FlowTable (connection ids + protocol classification
//     attached), emitted as PacketRecord chunks. lbl-pkt has no native
//     columnar decode, so open_packet_column_source bridges its row
//     source through ColumnsFromIngest; `wantraffic_ingest pkt` drains
//     the row sources of both formats.
//
// Connections have no chunk source: every connection analysis is a
// whole-trace algorithm, so read_conn_trace loads a ConnTrace whole, in
// one pass over the input.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ingest/flow_table.hpp"
#include "src/ingest/ingest_stats.hpp"
#include "src/ingest/mmap_source.hpp"
#include "src/ingest/ita_ascii.hpp"
#include "src/stream/chunk.hpp"
#include "src/stream/columnar.hpp"
#include "src/trace/conn_trace.hpp"

namespace wan::ingest {

/// Packet chunk source that also carries an ingest error ledger.
class IngestPacketSource : public stream::PacketChunkSource {
 public:
  virtual const IngestStats& stats() const = 0;
};

/// Columnar packet source that also carries an ingest error ledger.
class IngestColumnSource : public stream::PacketColumnSource {
 public:
  virtual const IngestStats& stats() const = 0;
};

/// Packets from a capture file, each folded through the FlowTable so
/// the emitted PacketRecords carry conn ids and port-classified
/// protocols. Reader is MmapPcapReader or LblPktReader.
template <typename Reader>
class PacketSourceImpl final : public IngestPacketSource {
 public:
  /// Opens and prescans `path`. Strict mode throws IngestError on the
  /// first structural defect (possibly from the prescan); lenient mode
  /// never throws past the initial open.
  PacketSourceImpl(const std::string& path, ParseMode mode,
                   FlowTableConfig flow = {},
                   std::size_t chunk_size = stream::kDefaultChunkSize);

  const stream::StreamInfo& info() const override { return info_; }
  bool next(std::vector<trace::PacketRecord>& chunk) override;
  void reset() override;

  const IngestStats& stats() const override { return reader_.stats(); }
  const FlowTable& flow_table() const { return table_; }

 private:
  Reader reader_;
  FlowTable table_;
  stream::StreamInfo info_;
  std::size_t chunk_size_;
};

using MmapPcapPacketSource = PacketSourceImpl<MmapPcapReader>;
using LblPktPacketSource = PacketSourceImpl<LblPktReader>;

/// The pcap path end to end: mmap'd pcap records batch-decode in place
/// and fold through the FlowTable straight into SoA columns — no
/// PacketRecord row chunk is ever materialized. Emits the exact rows
/// MmapPcapPacketSource does (pinned by the `ingest` tests);
/// analyze_columns drains it without the ColumnsFromRows transpose.
///
/// The constructor reads only the global header (strict mode throws
/// IngestError on a bad one); record defects surface at the first
/// info() or next(). info()'s range is [min packet time, max + one
/// tick), learned one of two ways, with the same bits:
///   * a pass that runs to the end folds the decoded times as it emits,
///     so info() after it costs nothing — the filtered analysis and the
///     strict monitor replay decode their capture once;
///   * info() before the first next() (or after reset() of an
///     unfinished pass) prescans every record and rewinds, discarding
///     the prescan's ledger — the unfiltered and windowed analyses and
///     the lenient monitor replay need the range first.
/// info() in the middle of the pass that learns it throws
/// std::logic_error.
class PcapColumnSource final : public IngestColumnSource {
 public:
  PcapColumnSource(const std::string& path, ParseMode mode,
                   FlowTableConfig flow = {},
                   std::size_t chunk_size = stream::kDefaultChunkSize);

  const stream::StreamInfo& info() const override;
  bool next(stream::PacketColumns& chunk) override;
  void reset() override;

  const IngestStats& stats() const override { return reader_.stats(); }
  const FlowTable& flow_table() const { return table_; }

 private:
  enum class Range { kUnknown, kLearning, kKnown };

  mutable MmapPcapReader reader_;  // info() may prescan and rewind it
  FlowTable table_;
  mutable stream::StreamInfo info_;
  mutable Range range_ = Range::kUnknown;
  bool any_ = false;  // the learning pass's fold so far
  double lo_ = 0.0;
  double hi_ = 0.0;
  std::size_t chunk_size_;
};

/// Owning rows->columns bridge: any IngestPacketSource behind the
/// columnar ledger contract. open_packet_column_source opens lbl-pkt,
/// which has no native columnar decode, through it. The transpose is
/// stream::ColumnsFromRows.
class ColumnsFromIngest final : public IngestColumnSource {
 public:
  explicit ColumnsFromIngest(std::unique_ptr<IngestPacketSource> inner)
      : inner_(std::move(inner)), columns_(*inner_) {}

  const stream::StreamInfo& info() const override { return inner_->info(); }
  bool next(stream::PacketColumns& chunk) override {
    return columns_.next(chunk);
  }
  void reset() override { inner_->reset(); }

  const IngestStats& stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<IngestPacketSource> inner_;
  stream::ColumnsFromRows columns_;
};

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
