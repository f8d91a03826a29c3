// Front door of the ingestion subsystem: pick a format, get a columnar
// packet source or a whole connection trace. Tools parse
// "--ingest-format=pcap|lbl-conn|lbl-pkt" into an IngestFormat and hand
// the rest to these functions.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/ingest/sources.hpp"
#include "src/trace/conn_trace.hpp"

namespace wan::ingest {

enum class IngestFormat : std::uint8_t {
  kPcap,     ///< binary libpcap capture
  kLblConn,  ///< ITA lbl-conn-7 ASCII connection log
  kLblPkt,   ///< ITA lbl-pkt / dec-pkt ASCII packet lines
};

/// "pcap", "lbl-conn", "lbl-pkt" (the --ingest-format spellings).
std::optional<IngestFormat> ingest_format_from_string(
    std::string_view s) noexcept;

const char* to_string(IngestFormat format) noexcept;

struct IngestOptions {
  ParseMode mode = ParseMode::kStrict;
  /// Records per chunk of a packet source. Connection traces load whole.
  std::size_t chunk_size = stream::kDefaultChunkSize;
  FlowTableConfig flow;  ///< idle timeout for flow reconstruction
};

/// The packet formats' one source: pcap and lbl-pkt each decode and
/// fold through the flow table straight into PacketColumns
/// (CaptureColumnSource), and learn their range by its lazy rule.
/// Throws std::invalid_argument for kLblConn — connection logs hold no
/// packets. Throws IngestError per the strict-mode contract: the pcap
/// global header's defects here, every other defect at the first
/// info() or next().
std::unique_ptr<IngestColumnSource> open_packet_column_source(
    const std::string& path, IngestFormat format, const IngestOptions& opt);

/// Ingests `path` into a ConnTrace sorted by start time, ready for
/// poisson_report / find_ftp_bursts, reading the input once: lbl-conn
/// logs are read directly, the packet formats are folded through flow
/// reconstruction (read_conn_trace). `stats_out`, when non-null,
/// receives the ledger. Throws IngestError per the strict-mode
/// contract, before anything is returned.
trace::ConnTrace reconstruct_conn_trace(const std::string& path,
                                        IngestFormat format,
                                        const IngestOptions& opt,
                                        IngestStats* stats_out = nullptr);

}  // namespace wan::ingest
