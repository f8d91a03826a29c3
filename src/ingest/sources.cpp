#include "src/ingest/sources.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace wan::ingest {

namespace {

// One timestamp tick past the last packet puts it inside the half-open
// analysis window [t_begin, t_end).
double source_tick(const MmapPcapReader& r) { return r.tick(); }
double source_tick(const LblPktReader&) { return 1e-6; }  // μs timestamps

const char* format_tag(const MmapPcapReader&) { return "pcap:"; }
const char* format_tag(const LblPktReader&) { return "lbl-pkt:"; }
const char* format_tag(const LblConnReader&) { return "lbl-conn:"; }

/// The info of a packet input whose decoded times fold to [lo, hi]:
/// [lo, hi + one tick), or [0, 0) when `any` is false (none decoded).
template <typename Reader>
stream::StreamInfo packet_info(const Reader& reader, std::string name,
                               bool any, double lo, double hi) {
  return {std::move(name), any ? lo : 0.0,
          any ? hi + source_tick(reader) : 0.0};
}

/// Streams up to `max` decoded packets into `sink(const RawPacket&)`
/// and returns how many: the reader's next() in a loop.
template <typename Reader, typename Sink>
std::size_t fold_packets(Reader& reader, std::size_t max, Sink&& sink) {
  std::size_t n = 0;
  RawPacket pkt;
  while (n < max && reader.next(pkt)) {
    sink(pkt);
    ++n;
  }
  return n;
}

/// MmapPcapReader folds through its own batch walk over the mapping —
/// the same records and ledger, minus the per-record call overhead (the
/// overload is preferred over the template).
template <typename Sink>
std::size_t fold_packets(MmapPcapReader& reader, std::size_t max,
                         Sink&& sink) {
  return reader.fold_packets(max, std::forward<Sink>(sink));
}

/// The prescan pass: the packet time range, with the reader left
/// rewound. It folds only the times, never storing a packet; the fold
/// is the learning pass's (CaptureColumnSource::next).
template <typename Reader>
stream::StreamInfo prescan_packets(Reader& reader, std::string name) {
  bool any = false;
  double lo = 0.0, hi = 0.0;
  fold_packets(reader, std::numeric_limits<std::size_t>::max(),
               [&](const RawPacket& pkt) {
                 if (!any) {
                   lo = hi = pkt.time;
                   any = true;
                 } else {
                   if (pkt.time < lo) lo = pkt.time;
                   if (pkt.time > hi) hi = pkt.time;
                 }
               });
  reader.reset();  // discards the prescan's ledger
  return packet_info(reader, std::move(name), any, lo, hi);
}

/// Packet consumers never drain closed-connection records; keep the
/// tables from accumulating them.
FlowTableConfig packet_flow_config(FlowTableConfig flow) {
  flow.collect_connections = false;
  return flow;
}

}  // namespace

// --------------------------------------------------- CaptureColumnSource

template <typename Reader>
CaptureColumnSource<Reader>::CaptureColumnSource(const std::string& path,
                                                 ParseMode mode,
                                                 FlowTableConfig flow,
                                                 std::size_t chunk_size)
    : reader_(path, mode),
      table_(packet_flow_config(flow)),
      chunk_size_(chunk_size) {
  info_.name = format_tag(reader_) + path;
}

template <typename Reader>
const stream::StreamInfo& CaptureColumnSource<Reader>::info() const {
  if (range_ == Range::kLearning)
    throw std::logic_error(
        "CaptureColumnSource: info() in the middle of the pass that learns "
        "the range: " +
        info_.name);
  if (range_ == Range::kUnknown) {
    info_ = prescan_packets(reader_, info_.name);
    range_ = Range::kKnown;
  }
  return info_;
}

template <typename Reader>
bool CaptureColumnSource<Reader>::next(stream::PacketColumns& chunk) {
  chunk.clear();
  chunk.reserve(chunk_size_);
  // Fused: each record goes input -> decode -> flow table -> SoA
  // columns in one pass, with no RawPacket batch buffer written and
  // re-read in between.
  fold_packets(reader_, chunk_size_, [&](const RawPacket& pkt) {
    table_.add_append(pkt, chunk);
  });
  if (range_ == Range::kKnown) return !chunk.empty();

  // Learning the range: every decoded packet is one row with its time,
  // so this is the prescan's fold (the first time seeds it; strict
  // comparisons keep the earlier of equal values). The end of input
  // completes it.
  range_ = Range::kLearning;
  if (chunk.empty()) {
    info_ = packet_info(reader_, info_.name, any_, lo_, hi_);
    range_ = Range::kKnown;
    return false;
  }
  if (!any_) {
    lo_ = hi_ = chunk.time.front();
    any_ = true;
  }
  for (const double t : chunk.time) {
    if (t < lo_) lo_ = t;
    if (t > hi_) hi_ = t;
  }
  return true;
}

template <typename Reader>
void CaptureColumnSource<Reader>::reset() {
  reader_.reset();
  table_.clear();  // identical conn ids on the second pass
  if (range_ == Range::kLearning) {  // forget the unfinished fold
    range_ = Range::kUnknown;
    any_ = false;
  }
}

template class CaptureColumnSource<MmapPcapReader>;
template class CaptureColumnSource<LblPktReader>;

// ------------------------------------------------------- read_conn_trace

template <typename Reader>
trace::ConnTrace read_conn_trace(const std::string& path, ParseMode mode,
                                 FlowTableConfig flow,
                                 IngestStats* stats_out) {
  Reader reader(path, mode);
  std::vector<trace::ConnRecord> records;
  bool any = false;
  double lo = 0.0, hi = 0.0;
  const auto cover = [&](double begin, double end) {
    lo = any ? std::min(lo, begin) : begin;
    hi = any ? std::max(hi, end) : end;
    any = true;
  };
  if constexpr (std::is_same_v<Reader, LblConnReader>) {
    trace::ConnRecord rec;
    while (reader.next(rec)) {
      cover(rec.start, rec.start + rec.duration);
      records.push_back(rec);
    }
  } else {
    FlowTable table(flow);
    RawPacket pkt;
    while (reader.next(pkt)) {
      cover(pkt.time, pkt.time);
      table.add(pkt);
      table.take_closed(records);  // drained as they close: one copy
    }
    table.flush();  // input ended: close what never saw a FIN
    table.take_closed(records);
    hi += source_tick(reader);
  }
  if (stats_out != nullptr) *stats_out = reader.stats();
  trace::ConnTrace tr(format_tag(reader) + path, any ? lo : 0.0,
                      any ? hi : 0.0, std::move(records));
  tr.sort_by_start();
  return tr;
}

template trace::ConnTrace read_conn_trace<MmapPcapReader>(
    const std::string&, ParseMode, FlowTableConfig, IngestStats*);
template trace::ConnTrace read_conn_trace<LblPktReader>(
    const std::string&, ParseMode, FlowTableConfig, IngestStats*);
template trace::ConnTrace read_conn_trace<LblConnReader>(
    const std::string&, ParseMode, FlowTableConfig, IngestStats*);

}  // namespace wan::ingest
