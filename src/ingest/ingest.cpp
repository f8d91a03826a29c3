#include "src/ingest/ingest.hpp"

#include <stdexcept>

namespace wan::ingest {

std::optional<IngestFormat> ingest_format_from_string(
    std::string_view s) noexcept {
  if (s == "pcap") return IngestFormat::kPcap;
  if (s == "lbl-conn") return IngestFormat::kLblConn;
  if (s == "lbl-pkt") return IngestFormat::kLblPkt;
  return std::nullopt;
}

const char* to_string(IngestFormat format) noexcept {
  switch (format) {
    case IngestFormat::kPcap: return "pcap";
    case IngestFormat::kLblConn: return "lbl-conn";
    case IngestFormat::kLblPkt: return "lbl-pkt";
  }
  return "?";
}

namespace {

/// "-" (stdin) rides the MmapPcapReader path: open_byte_source spools
/// the stream to a rewindable temp file, so only the formats that never
/// reach that reader need rejecting — the ASCII ones, whose readers
/// open the path directly.
void check_stdin_support(const std::string& path, IngestFormat format) {
  if (path != "-") return;
  if (format != IngestFormat::kPcap)
    throw std::invalid_argument(
        "stdin input (-) is supported for pcap only; the " +
        std::string(to_string(format)) +
        " reader needs a named file");
}

}  // namespace

std::unique_ptr<IngestColumnSource> open_packet_column_source(
    const std::string& path, IngestFormat format, const IngestOptions& opt) {
  check_stdin_support(path, format);
  switch (format) {
    case IngestFormat::kPcap:
      return std::make_unique<PcapColumnSource>(path, opt.mode, opt.flow,
                                                opt.chunk_size);
    case IngestFormat::kLblPkt:
      return std::make_unique<LblPktColumnSource>(path, opt.mode, opt.flow,
                                                  opt.chunk_size);
    case IngestFormat::kLblConn:
      break;
  }
  throw std::invalid_argument(
      "lbl-conn logs hold connections, not packets; use "
      "reconstruct_conn_trace");
}

trace::ConnTrace reconstruct_conn_trace(const std::string& path,
                                        IngestFormat format,
                                        const IngestOptions& opt,
                                        IngestStats* stats_out) {
  check_stdin_support(path, format);
  switch (format) {
    case IngestFormat::kPcap:
      return read_conn_trace<MmapPcapReader>(path, opt.mode, opt.flow,
                                             stats_out);
    case IngestFormat::kLblPkt:
      return read_conn_trace<LblPktReader>(path, opt.mode, opt.flow,
                                           stats_out);
    case IngestFormat::kLblConn:
      return read_conn_trace<LblConnReader>(path, opt.mode, opt.flow,
                                            stats_out);
  }
  throw std::invalid_argument("unknown ingest format");
}

}  // namespace wan::ingest
