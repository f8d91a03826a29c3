#include "src/trace/csv_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace wan::trace {

namespace {

// Rows per read in read_packet_csv, so it holds one bounded chunk of
// parsed rows at a time.
constexpr std::size_t kChunkRows = std::size_t{1} << 16;

// Rows are formatted into an 8 KiB stack buffer, one os.write per full
// buffer, so a write costs no heap memory however large the chunk.
constexpr std::ptrdiff_t kWriteBlockBytes = 8 * 1024;

// Longest packet row: a 24-byte "%.17g" time, a protocol name of at
// most 7, a 10-digit conn id, the flag, a 5-digit payload, four commas
// and the newline.
constexpr std::ptrdiff_t kMaxPacketRowBytes = 64;

[[noreturn]] void bad_line(const std::string& what, std::size_t line_no) {
  throw std::runtime_error("csv_io: " + what + " at line " +
                           std::to_string(line_no));
}

// std::getline minus one trailing '\r', so a CRLF file (RFC 4180's line
// ending) reads like an LF one.
bool read_line(std::istream& is, std::string& line) {
  if (!std::getline(is, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

// Formats v with "%.17g", so it reads back bit for bit; returns the
// end of the text. buf holds 32.
char* format_g17(char* buf, double v) {
  return buf + std::snprintf(buf, 32, "%.17g", v);
}

// Streams a double through format_g17.
struct G17 {
  double v;
};

std::ostream& operator<<(std::ostream& os, G17 g) {
  char buf[32];
  return os.write(buf, format_g17(buf, g.v) - buf);
}

// Splits a data row at its commas into exactly N fields, in place.
template <std::size_t N>
std::array<std::string_view, N> split_fields(std::string_view line,
                                             std::size_t line_no) {
  std::array<std::string_view, N> fields;
  std::size_t n = 0;
  for (;;) {
    const std::size_t comma = line.find(',');
    if (n == N) bad_line("expected " + std::to_string(N) + " fields", line_no);
    fields[n++] = line.substr(0, comma);
    if (comma == std::string_view::npos) break;
    line.remove_prefix(comma + 1);
  }
  if (n != N) bad_line("expected " + std::to_string(N) + " fields", line_no);
  return fields;
}

// A field that must parse whole as a finite double.
double parse_finite(std::string_view s, const char* what,
                    std::size_t line_no) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size())
    bad_line(std::string("malformed ") + what, line_no);
  if (!std::isfinite(v)) bad_line(std::string("non-finite ") + what, line_no);
  return v;
}

// A field that must parse whole as a decimal that fits T.
template <typename T>
T parse_uint(std::string_view s, const char* what, std::size_t line_no) {
  T v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size())
    bad_line(std::string("malformed ") + what, line_no);
  return v;
}

Protocol parse_protocol(std::string_view s, std::size_t line_no) {
  const auto p = protocol_from_string(s);
  if (!p) bad_line("unknown protocol '" + std::string(s) + "'", line_no);
  return *p;
}

// The "# t_begin=... t_end=... name=..." metadata comment on line 1.
std::pair<double, double> parse_meta(const std::string& line) {
  double t_begin = 0.0, t_end = 0.0;
  std::istringstream meta(line);
  std::string tok;
  while (meta >> tok) {
    const std::string_view t = tok;
    if (t.starts_with("t_begin="))
      t_begin = parse_finite(t.substr(8), "t_begin", 1);
    if (t.starts_with("t_end=")) t_end = parse_finite(t.substr(6), "t_end", 1);
  }
  return {t_begin, t_end};
}

PacketRecord parse_packet_row(std::string_view line, std::size_t line_no) {
  const auto f = split_fields<5>(line, line_no);
  PacketRecord r;
  r.time = parse_finite(f[0], "time", line_no);
  r.protocol = parse_protocol(f[1], line_no);
  r.conn_id = parse_uint<std::uint32_t>(f[2], "conn", line_no);
  if (f[3] != "0" && f[3] != "1") bad_line("malformed orig", line_no);
  r.from_originator = f[3] == "1";
  r.payload_bytes = parse_uint<std::uint16_t>(f[4], "payload", line_no);
  return r;
}

ConnRecord parse_conn_row(std::string_view line, std::size_t line_no) {
  const auto f = split_fields<8>(line, line_no);
  ConnRecord r;
  r.start = parse_finite(f[0], "start", line_no);
  r.duration = parse_finite(f[1], "duration", line_no);
  r.protocol = parse_protocol(f[2], line_no);
  r.src_host = parse_uint<std::uint32_t>(f[3], "src", line_no);
  r.dst_host = parse_uint<std::uint32_t>(f[4], "dst", line_no);
  r.bytes_orig = parse_uint<std::uint64_t>(f[5], "bytes_orig", line_no);
  r.bytes_resp = parse_uint<std::uint64_t>(f[6], "bytes_resp", line_no);
  r.session_id = parse_uint<std::uint64_t>(f[7], "session", line_no);
  return r;
}

// `trace` over `window`: itself when the window rule kept its
// metadata window, else a copy of its records under the new one.
template <typename Trace>
Trace with_window(Trace trace, std::pair<double, double> window) {
  if (window == std::pair{trace.t_begin(), trace.t_end()}) return trace;
  Trace out(trace.name(), window.first, window.second);
  for (const auto& r : trace.records()) out.add(r);
  return out;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("csv_io: cannot open for write: " + path);
  return os;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("csv_io: cannot open for read: " + path);
  return is;
}

}  // namespace

std::pair<double, double> CsvRecordExtent::window(
    std::pair<double, double> meta) const {
  if (meta.second > meta.first) return meta;
  if (first_ > last_) return {0.0, 0.0};  // no records
  return {first_,
          std::nextafter(last_, std::numeric_limits<double>::infinity())};
}

void write_csv(const ConnTrace& trace, std::ostream& os) {
  os << "# t_begin=" << G17{trace.t_begin()} << " t_end="
     << G17{trace.t_end()} << " name=" << trace.name() << "\n";
  os << "start,duration,protocol,src,dst,bytes_orig,bytes_resp,session\n";
  for (const ConnRecord& r : trace.records()) {
    os << G17{r.start} << ',' << G17{r.duration} << ','
       << to_string(r.protocol) << ',' << r.src_host << ',' << r.dst_host
       << ',' << r.bytes_orig << ',' << r.bytes_resp << ',' << r.session_id
       << '\n';
  }
}

void write_csv_file(const ConnTrace& trace, const std::string& path) {
  auto os = open_out(path);
  write_csv(trace, os);
}

ConnTrace read_conn_csv(std::istream& is, std::string name) {
  std::size_t line_no = 0;
  const auto meta = read_csv_header(is, line_no);
  ConnTrace trace(std::move(name), meta.first, meta.second);
  CsvRecordExtent extent;
  std::string line;
  while (read_line(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const ConnRecord r = parse_conn_row(line, line_no);
    extent.add(r.start, r.end());
    trace.add(r);
  }
  return with_window(std::move(trace), extent.window(meta));
}

ConnTrace read_conn_csv_file(const std::string& path) {
  auto is = open_in(path);
  return read_conn_csv(is, path);
}

void write_packet_csv_header(std::ostream& os, const std::string& name,
                             double t_begin, double t_end) {
  os << "# t_begin=" << G17{t_begin} << " t_end=" << G17{t_end}
     << " name=" << name << "\n";
  os << "time,protocol,conn,orig,payload\n";
}

void write_packet_csv_rows(std::ostream& os,
                           std::span<const PacketRecord> rows) {
  char buf[kWriteBlockBytes];
  char* p = buf;
  for (const PacketRecord& r : rows) {
    if (buf + kWriteBlockBytes - p < kMaxPacketRowBytes) {
      os.write(buf, p - buf);
      p = buf;
    }
    p = format_g17(p, r.time);
    *p++ = ',';
    const std::string_view proto = to_string(r.protocol);
    p = std::copy(proto.begin(), proto.end(), p);
    *p++ = ',';
    p = std::to_chars(p, p + 10, r.conn_id).ptr;
    *p++ = ',';
    *p++ = r.from_originator ? '1' : '0';
    *p++ = ',';
    p = std::to_chars(p, p + 5, r.payload_bytes).ptr;
    *p++ = '\n';
  }
  os.write(buf, p - buf);
}

std::pair<double, double> read_csv_header(std::istream& is,
                                          std::size_t& line_no) {
  std::string line;
  std::pair<double, double> meta{0.0, 0.0};
  line_no = 0;
  if (is.peek() == '#' && read_line(is, line)) {
    ++line_no;
    meta = parse_meta(line);
  }
  if (!read_line(is, line)) throw std::runtime_error("csv_io: empty input");
  ++line_no;
  return meta;
}

bool read_packet_csv_rows(std::istream& is, std::size_t n,
                          std::vector<PacketRecord>& out,
                          std::size_t& line_no) {
  const std::size_t base = out.size();
  std::string line;
  while (out.size() - base < n && read_line(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    out.push_back(parse_packet_row(line, line_no));
  }
  return out.size() > base;
}

void write_csv(const PacketTrace& trace, std::ostream& os) {
  write_packet_csv_header(os, trace.name(), trace.t_begin(), trace.t_end());
  write_packet_csv_rows(os, trace.records());
}

void write_csv_file(const PacketTrace& trace, const std::string& path) {
  auto os = open_out(path);
  write_csv(trace, os);
}

PacketTrace read_packet_csv(std::istream& is, std::string name) {
  std::size_t line_no = 0;
  const auto meta = read_csv_header(is, line_no);
  PacketTrace trace(std::move(name), meta.first, meta.second);
  CsvRecordExtent extent;
  std::vector<PacketRecord> chunk;
  while (read_packet_csv_rows(is, kChunkRows, chunk, line_no)) {
    for (const PacketRecord& r : chunk) {
      extent.add(r.time, r.time);
      trace.add(r);
    }
    chunk.clear();
  }
  return with_window(std::move(trace), extent.window(meta));
}

PacketTrace read_packet_csv_file(const std::string& path) {
  auto is = open_in(path);
  return read_packet_csv(is, path);
}

}  // namespace wan::trace
