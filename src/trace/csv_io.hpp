// CSV persistence for traces, so synthesized datasets can be saved,
// shared, and re-analyzed with external tools. Every double (times,
// durations, the header's t_begin/t_end) is written with 17 significant
// digits, so a trace read back is bit-identical to the one written.
//
// The readers parse every field in place and take it only whole and in
// range: a double must be finite ("csv_io: non-finite <field> at line
// N"); an integer must fit its column's type and `orig` must be 0 or 1
// ("csv_io: malformed <field> at line N"). Fields are named as in the
// column header. Lines may end in LF or CRLF.
//
// The window rule. A trace CSV's window is its metadata line's
// "# t_begin=... t_end=...". A file without that line, or whose
// t_end <= t_begin, takes the window of its records instead: t_begin
// is the earliest record start, and t_end is std::nextafter(latest
// record end, +inf), the smallest double above it. A packet starts and
// ends at its time; a connection starts at `start` and ends at
// start + duration. So every record lies inside the half-open
// [t_begin, t_end). A file with no records gets [0, 0).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/trace/conn_trace.hpp"
#include "src/trace/packet_trace.hpp"

namespace wan::trace {

/// Writes "start,duration,protocol,src,dst,bytes_orig,bytes_resp,session"
/// rows with a header line.
void write_csv(const ConnTrace& trace, std::ostream& os);
void write_csv_file(const ConnTrace& trace, const std::string& path);

/// Reads the format written by write_csv. Throws std::runtime_error on
/// malformed input.
ConnTrace read_conn_csv(std::istream& is, std::string name = "csv");
ConnTrace read_conn_csv_file(const std::string& path);

/// Writes "time,protocol,conn,orig,payload" rows with a header line.
void write_csv(const PacketTrace& trace, std::ostream& os);
void write_csv_file(const PacketTrace& trace, const std::string& path);

PacketTrace read_packet_csv(std::istream& is, std::string name = "csv");
PacketTrace read_packet_csv_file(const std::string& path);

// --- Packet-CSV codec ---------------------------------------------------
//
// Shared by write_csv/read_packet_csv and the chunked streaming CSV
// reader/writer (src/stream/csv_chunk.hpp), so a file streamed chunk by
// chunk is byte-identical to one written whole.

/// Writes the "# t_begin=..." metadata comment plus the column header.
void write_packet_csv_header(std::ostream& os, const std::string& name,
                             double t_begin, double t_end);

/// Formats the rows into an 8 KiB stack buffer, one os.write per full
/// buffer.
void write_packet_csv_rows(std::ostream& os,
                           std::span<const PacketRecord> rows);

/// Parses a trace CSV's optional leading metadata comment (consumes it
/// only if present) and its column header line, and sets `line_no` to
/// the number of lines they took. Returns the metadata's
/// {t_begin, t_end}, {0, 0} when the file carries no metadata.
std::pair<double, double> read_csv_header(std::istream& is,
                                          std::size_t& line_no);

/// Appends up to `n` data rows to `out`, skipping blank lines;
/// `line_no` counts the lines read so far and advances with them.
/// Returns false, appending nothing, at the end of the input. Throws
/// std::runtime_error (naming the line) on a malformed row.
bool read_packet_csv_rows(std::istream& is, std::size_t n,
                          std::vector<PacketRecord>& out,
                          std::size_t& line_no);

/// The running extent of a trace CSV's records, folded into the window
/// rule above.
class CsvRecordExtent {
 public:
  void add(double start, double end) {
    if (start < first_) first_ = start;
    if (end > last_) last_ = end;
  }

  /// `meta` when it has t_end > t_begin, else the records' window.
  std::pair<double, double> window(std::pair<double, double> meta) const;

 private:
  double first_ = std::numeric_limits<double>::infinity();
  double last_ = -std::numeric_limits<double>::infinity();
};

}  // namespace wan::trace
