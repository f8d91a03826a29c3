// Ingest readers behind the streaming layer's contracts, so real
// captures flow through the same src/stream pipeline as synthesized
// traces, in chunk-bounded memory.
//
// Packet sources are two-pass: the constructor prescans the file once
// to learn the trace's time range (analyze_stream reads info() before
// any records flow), then rewinds. The prescan's ledger is discarded on
// the rewind — stats() reflects the emission pass only, so callers see
// each defect counted exactly once.
//
//   * PacketSourceImpl<MmapPcapReader / PcapReader / LblPktReader> —
//     packets through a flow table (connection ids + protocol
//     classification attached), emitted as PacketRecord chunks. The
//     second template parameter picks the table (flat FlowTable by
//     default). The PcapReader and NodeFlowTable instantiations are
//     references only: parity tests and the bench_perf_ingest gate
//     compare the fast path against them; no factory opens them.
//   * PcapColumnSource — the zero-copy fast path: mmap'd batch decode
//     folded straight into PacketColumns, no PacketRecord row chunk in
//     between. ColumnsFromIngest adapts any row source to the same
//     contract for the formats without a native columnar path.
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
#include "src/ingest/node_flow_table.hpp"
#include "src/ingest/ita_ascii.hpp"
#include "src/ingest/pcap_reader.hpp"
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

/// Packets from a capture file, each folded through a flow table so the
/// emitted PacketRecords carry conn ids and port-classified protocols.
/// Reader is MmapPcapReader, PcapReader or LblPktReader; Table is the
/// flat FlowTable (default) or NodeFlowTable (the retained baseline the
/// benches and parity tests compare against).
template <typename Reader, typename Table = FlowTable>
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
  const Table& flow_table() const { return table_; }

 private:
  Reader reader_;
  Table table_;
  stream::StreamInfo info_;
  std::size_t chunk_size_;
};

using MmapPcapPacketSource = PacketSourceImpl<MmapPcapReader>;
using PcapPacketSource = PacketSourceImpl<PcapReader>;
using LblPktPacketSource = PacketSourceImpl<LblPktReader>;
/// The pre-fast-path configuration (ifstream reader + node table),
/// instantiated so benches can measure the fast path against it.
using NodePcapPacketSource = PacketSourceImpl<PcapReader, NodeFlowTable>;

/// Whether a source's constructor runs the prescan pass (the default)
/// or defers it for the speculative single-pass analysis.
enum class Prescan {
  kEager,
  /// Skip the constructor's prescan: info() carries the right name but
  /// a zero time range until ensure_eager_info() runs, so the standard
  /// pipelines reject a deferred source loudly ("series too short")
  /// instead of analyzing a wrong grid. Only analyze_pcap_onepass
  /// consumes deferred sources: it learns the range from the emission
  /// pass itself and never reads the deferred info's t_begin/t_end.
  kDeferred,
};

/// The zero-copy fast path end to end: mmap'd pcap records batch-decode
/// in place and fold through the flat FlowTable straight into SoA
/// columns — no PacketRecord row chunk is ever materialized. Emits the
/// exact rows PacketSourceImpl would (pinned by the parity tests);
/// analyze_columns drains it without the ColumnsFromRows transpose.
class PcapColumnSource final : public IngestColumnSource {
 public:
  PcapColumnSource(const std::string& path, ParseMode mode,
                   FlowTableConfig flow = {},
                   std::size_t chunk_size = stream::kDefaultChunkSize,
                   Prescan prescan = Prescan::kEager);

  const stream::StreamInfo& info() const override { return info_; }
  bool next(stream::PacketColumns& chunk) override;
  void reset() override;

  const IngestStats& stats() const override { return reader_.stats(); }
  const FlowTable& flow_table() const { return table_; }

  /// True until a deferred prescan has been replaced by a real one.
  bool info_deferred() const { return deferred_; }
  /// Runs the prescan a deferred constructor skipped (and rewinds), so
  /// info() becomes exactly what the eager constructor would have
  /// produced. The single-pass analysis calls this when its in-order
  /// speculation fails and it falls back to the two-pass path. No-op
  /// when info is already eager.
  void ensure_eager_info();

  /// Speculation support, valid while info is deferred: the time of the
  /// first packet emitted since construction/reset (t_begin, if the
  /// stream turns out to be in order), and whether any packet emitted.
  bool any_emitted() const { return first_time_set_; }
  double first_emitted_time() const { return first_time_; }
  /// The max emitted timestamp so far (exact once the source drains).
  double emitted_max_time() const { return reader_.max_time_seen(); }
  /// One timestamp quantum, for t_end = max + tick at end of stream —
  /// the same tick the eager prescan adds.
  double tick() const { return reader_.tick(); }

 private:
  MmapPcapReader reader_;
  FlowTable table_;
  stream::StreamInfo info_;
  std::size_t chunk_size_;
  bool deferred_ = false;
  bool first_time_set_ = false;
  double first_time_ = 0.0;
  std::string path_;  ///< kept only for a deferred ensure_eager_info()
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
