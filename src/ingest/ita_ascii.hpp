// Readers for the two Internet Traffic Archive ASCII formats the
// paper's datasets ship in:
//
//  * lbl-conn-7 connection logs — one TCP connection per line:
//        timestamp duration protocol bytes_orig bytes_resp local remote
//    with optional trailing fields (ignored) and "?" standing for an
//    unknown duration or byte count (the SYN/FIN monitor missed that
//    side). Hosts are the archive's renumbered small integers; protocol
//    is a lowercase service name ("telnet", "ftp-data", "nntp", ...).
//
//  * lbl-pkt / dec-pkt packet lines (the sanitize-tcp output format) —
//    one packet per line:
//        timestamp src_host dst_host src_port dst_port data_bytes
//    data_bytes 0 is a pure ack. No TCP flag bits survive
//    sanitization, so flow reconstruction falls back to first-seen
//    originator and idle-timeout closing.
//
// Both readers stream line by line (memory bounded by one line), skip
// '#' comments and blank lines, and report defects through the shared
// IngestStats/ParseMode contract.
#pragma once

#include <fstream>
#include <string>

#include "src/ingest/ingest_stats.hpp"
#include "src/ingest/raw_packet.hpp"
#include "src/trace/records.hpp"

namespace wan::ingest {

class LblConnReader {
 public:
  /// Throws std::runtime_error if the file cannot be opened.
  LblConnReader(const std::string& path, ParseMode mode);

  /// Parses the next connection line. Returns false at EOF. In lenient
  /// mode unparsable lines are counted and skipped; "?" fields parse as
  /// 0 and count as missing (they are legitimate archive content, so
  /// strict mode accepts them too).
  bool next(trace::ConnRecord& out);

  const IngestStats& stats() const { return stats_; }

 private:
  std::ifstream is_;
  std::string path_;
  ParseMode mode_;
  IngestStats stats_;
  std::size_t line_no_ = 0;
  double prev_start_ = 0.0;
  bool any_ = false;
  std::string line_;
};

class LblPktReader {
 public:
  /// Throws std::runtime_error if the file cannot be opened.
  LblPktReader(const std::string& path, ParseMode mode);

  /// Parses the next packet line into a RawPacket (tcp, no flag bits).
  /// Returns false at EOF.
  bool next(RawPacket& out);

  void reset();
  const IngestStats& stats() const { return stats_; }

 private:
  std::ifstream is_;
  std::string path_;
  ParseMode mode_;
  IngestStats stats_;
  std::size_t line_no_ = 0;
  double prev_time_ = 0.0;
  bool any_ = false;
  std::string line_;
};

}  // namespace wan::ingest
