// CSV persistence for traces, so synthesized datasets can be saved,
// shared, and re-analyzed with external tools. Every double (times,
// durations, the header's t_begin/t_end) is written with 17 significant
// digits, so a trace read back is bit-identical to the one written. The
// readers reject nan and inf in any of those fields, naming the line.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>

#include "src/trace/conn_trace.hpp"
#include "src/trace/packet_trace.hpp"

namespace wan::trace {

/// Writes "start,duration,protocol,src,dst,bytes_orig,bytes_resp,session"
/// rows with a header line.
void write_csv(const ConnTrace& trace, std::ostream& os);
void write_csv_file(const ConnTrace& trace, const std::string& path);

/// Reads the format written by write_csv. Throws std::runtime_error on
/// malformed input, non-finite numbers included.
ConnTrace read_conn_csv(std::istream& is, std::string name = "csv");
ConnTrace read_conn_csv_file(const std::string& path);

/// Writes "time,protocol,conn,orig,payload" rows with a header line.
void write_csv(const PacketTrace& trace, std::ostream& os);
void write_csv_file(const PacketTrace& trace, const std::string& path);

PacketTrace read_packet_csv(std::istream& is, std::string name = "csv");
PacketTrace read_packet_csv_file(const std::string& path);

// --- Row-level packet-CSV primitives -----------------------------------
//
// Shared by write_csv/read_packet_csv and the chunked streaming CSV
// reader/writer (src/stream/csv_chunk.hpp), so a file streamed row by
// row is byte-identical to one written whole.

/// Writes the "# t_begin=..." metadata comment plus the column header.
void write_packet_csv_header(std::ostream& os, const std::string& name,
                             double t_begin, double t_end);

void write_packet_csv_row(std::ostream& os, const PacketRecord& r);

/// Parses the optional leading metadata comment (consumes it only if
/// present) and the column header line. Returns {t_begin, t_end} —
/// {0, 0} when the file carries no metadata.
std::pair<double, double> read_packet_csv_header(std::istream& is);

/// Parses one data row as written by write_packet_csv_row. Throws
/// std::runtime_error (mentioning line_no) on malformed input.
PacketRecord parse_packet_csv_row(const std::string& line,
                                  std::size_t line_no);

}  // namespace wan::trace
