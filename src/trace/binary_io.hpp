// Compact binary persistence for packet traces. CSV (csv_io.hpp) is the
// interchange format; the binary format exists because packet traces run
// to millions of records (Table II) and parse time matters when a bench
// re-reads a synthesized hour of traffic.
//
// Format (little-endian):
//   magic   "WANT"            4 bytes
//   version u32               currently 1
//   t_begin f64, t_end f64
//   name_len u32, name bytes
//   count   u64
//   records: f64 time, u8 protocol, u8 from_originator, u16 payload,
//            u32 conn_id                      (16 bytes each)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "src/trace/packet_trace.hpp"

namespace wan::trace {

void write_binary(const PacketTrace& trace, std::ostream& os);
void write_binary_file(const PacketTrace& trace, const std::string& path);

/// Throws std::runtime_error on a malformed stream (bad magic, version,
/// truncated records, unknown protocol byte).
PacketTrace read_packet_binary(std::istream& is);
PacketTrace read_packet_binary_file(const std::string& path);

// --- Format primitives -------------------------------------------------
//
// The header and record codecs below are the single definition of the
// file format; write_binary/read_packet_binary and the chunked streaming
// reader/writer (src/stream/binary_chunk.hpp) are all built on them, so
// a trace written chunk by chunk is byte-identical to one written whole.
// Records move in 8 KiB blocks of 512, one stream call per block, not
// five stream calls per record.

struct PacketFileHeader {
  std::string name;
  double t_begin = 0.0;
  double t_end = 0.0;
  std::uint64_t count = 0;
};

/// Size of one encoded record (f64 time, u8 protocol, u8 originator,
/// u16 payload, u32 conn_id).
inline constexpr std::size_t kPacketRecordBytes = 16;

/// Writes the header; returns the absolute stream offset of the count
/// field so a streaming writer can patch it once the count is known.
std::uint64_t write_packet_header(std::ostream& os,
                                  const PacketFileHeader& header);

/// Reads and validates magic/version; throws std::runtime_error on a
/// malformed header or a non-finite t_begin or t_end.
PacketFileHeader read_packet_header(std::istream& is);

/// Encodes the records into an 8 KiB stack buffer, one os.write per
/// full buffer.
void write_packet_records(std::ostream& os,
                          std::span<const PacketRecord> records);

/// Appends `n` records to `out`, read into an 8 KiB stack buffer, one
/// is.read per buffer. Throws std::runtime_error on truncation, a
/// non-finite time or an unknown protocol byte.
void read_packet_records(std::istream& is, std::size_t n,
                         std::vector<PacketRecord>& out);

}  // namespace wan::trace
