// Minimal pcap *writer* — the inverse of the readers, for tests and
// benches that need a real capture file to tail or replay. Writes the
// classic little-endian usec format (magic 0xa1b2c3d4, linktype
// Ethernet) with fully synthetic but internally consistent frames:
// Ethernet/IPv4/TCP, 54 header bytes plus no captured payload, with
// the IP total length carrying the payload size the way our decoder
// derives payload_bytes (total_len - ip_hdr - tcp_hdr).
//
// write_pcap_for_records() round-trips trace::PacketRecords: each
// conn_id gets a distinct host pair and a responder port chosen so
// classify_tcp() reproduces the record's protocol, the first packet of
// a connection carries SYN (or SYN|ACK when the responder speaks
// first, which FlowTable maps back to the same originator), and every
// later packet plain ACK. Feeding the file through any pcap source
// therefore yields the original records — same times, protocols,
// direction flags and payload sizes — which is what lets monitor tests
// compare a live tail/replay against the offline analyzers on
// arbitrary synthesized traffic, not just the checked-in fixtures.
//
// PcapFileWriter builds its records in a 64 KiB block and writes the
// stream a block at a time, not one stream write per 70-byte record.
// The block stays at 64 KiB because the size of the writes shows in
// the resident set of a job that maps the capture afterwards (larger
// page-cache folios, presumably): 1 MiB blocks saved no measurable
// set-up time and raised the monitor replay benchmark's peak by about
// 0.2 MB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

#include "src/trace/records.hpp"

namespace wan::ingest {

class PcapFileWriter {
 public:
  /// Opens (truncates) `path` and writes the global header.
  /// Throws std::runtime_error when the file cannot be created.
  explicit PcapFileWriter(const std::string& path);
  /// Writes out the block; reports no error, as ~ofstream does not.
  ~PcapFileWriter();
  PcapFileWriter(const PcapFileWriter&) = delete;
  PcapFileWriter& operator=(const PcapFileWriter&) = delete;

  /// Appends one Ethernet/IPv4/TCP frame. `payload_bytes` is encoded in
  /// the IP total length (not captured), matching how decode derives it.
  /// Throws std::invalid_argument when a record cannot hold the frame:
  /// `time` outside [0, 2^32) seconds (NaN included), or
  /// `payload_bytes` above 65495, the most a 16-bit IP total length
  /// holds past the two 20-byte headers. Throws std::runtime_error when
  /// a block write fails.
  void write_tcp(double time, std::uint32_t src_ip, std::uint32_t dst_ip,
                 std::uint16_t src_port, std::uint16_t dst_port,
                 std::uint8_t tcp_flags, std::uint16_t payload_bytes);

  /// Writes out the block and flushes the stream; throws
  /// std::runtime_error when that fails.
  void flush();

 private:
  void write_block();

  std::ofstream out_;
  std::unique_ptr<unsigned char[]> block_;
  std::size_t used_ = 0;  ///< bytes of block_ built, not yet written
};

/// Streaming record-to-frame encoder: feed time-ordered PacketRecords
/// one at a time and get the capture described in the file comment.
/// State is one small entry per distinct conn_id, so multi-day
/// synthetic captures encode without materializing their records.
class PcapRecordEncoder {
 public:
  explicit PcapRecordEncoder(const std::string& path) : writer_(path) {}

  void add(const trace::PacketRecord& record);
  void flush() { writer_.flush(); }

 private:
  struct Conn {
    std::uint32_t orig_ip = 0, resp_ip = 0;
    std::uint16_t orig_port = 0, resp_port = 0;
    bool started = false;
  };

  PcapFileWriter writer_;
  std::unordered_map<std::uint32_t, Conn> conns_;
};

/// Synthesizes a capture that ingests back to exactly `records` (which
/// must be time-ordered). See the file comment for the construction.
void write_pcap_for_records(const std::string& path,
                            std::span<const trace::PacketRecord> records);

}  // namespace wan::ingest
