#include "src/trace/csv_io.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace wan::trace {

namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream ss(line);
  while (std::getline(ss, field, ',')) fields.push_back(field);
  return fields;
}

[[noreturn]] void bad_line(const std::string& what, std::size_t line_no) {
  throw std::runtime_error("csv_io: " + what + " at line " +
                           std::to_string(line_no));
}

// Streams a double at 17 significant digits, so it reads back bit for
// bit.
struct G17 {
  double v;
};

std::ostream& operator<<(std::ostream& os, G17 g) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", g.v);
  return os.write(buf, n);
}

// std::stod that also refuses nan and inf.
double parse_finite(const std::string& s, const char* what,
                    std::size_t line_no) {
  double v = 0.0;
  try {
    v = std::stod(s);
  } catch (const std::logic_error&) {
    bad_line(std::string("malformed ") + what, line_no);
  }
  if (!std::isfinite(v)) bad_line(std::string("non-finite ") + what, line_no);
  return v;
}

// The "# t_begin=... t_end=... name=..." metadata comment on line 1.
std::pair<double, double> parse_meta(const std::string& line) {
  double t_begin = 0.0, t_end = 0.0;
  std::istringstream meta(line);
  std::string tok;
  while (meta >> tok) {
    if (tok.rfind("t_begin=", 0) == 0)
      t_begin = parse_finite(tok.substr(8), "t_begin", 1);
    if (tok.rfind("t_end=", 0) == 0)
      t_end = parse_finite(tok.substr(6), "t_end", 1);
  }
  return {t_begin, t_end};
}

Protocol parse_protocol(const std::string& s, std::size_t line_no) {
  const auto p = protocol_from_string(s);
  if (!p) bad_line("unknown protocol '" + s + "'", line_no);
  return *p;
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
  std::string line;
  std::size_t line_no = 0;
  double t_begin = 0.0, t_end = 0.0;

  // Optional metadata comment.
  if (is.peek() == '#') {
    std::getline(is, line);
    ++line_no;
    std::tie(t_begin, t_end) = parse_meta(line);
  }
  // Header.
  if (!std::getline(is, line)) throw std::runtime_error("csv_io: empty input");
  ++line_no;

  ConnTrace trace(std::move(name), t_begin, t_end);
  double max_end = t_end;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto f = split_csv_line(line);
    if (f.size() != 8) bad_line("expected 8 fields", line_no);
    ConnRecord r;
    r.start = parse_finite(f[0], "start", line_no);
    r.duration = parse_finite(f[1], "duration", line_no);
    try {
      r.protocol = parse_protocol(f[2], line_no);
      r.src_host = static_cast<std::uint32_t>(std::stoul(f[3]));
      r.dst_host = static_cast<std::uint32_t>(std::stoul(f[4]));
      r.bytes_orig = std::stoull(f[5]);
      r.bytes_resp = std::stoull(f[6]);
      r.session_id = std::stoull(f[7]);
    } catch (const std::logic_error&) {
      bad_line("malformed field", line_no);
    }
    max_end = std::max(max_end, r.end());
    trace.add(r);
  }
  if (t_end <= t_begin) {
    trace = [&] {
      ConnTrace fixed(trace.name(), t_begin, max_end);
      for (const auto& r : trace.records()) fixed.add(r);
      return fixed;
    }();
  }
  return trace;
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

void write_packet_csv_row(std::ostream& os, const PacketRecord& r) {
  os << G17{r.time} << ',' << to_string(r.protocol) << ',' << r.conn_id
     << ',' << (r.from_originator ? 1 : 0) << ',' << r.payload_bytes << '\n';
}

std::pair<double, double> read_packet_csv_header(std::istream& is) {
  std::string line;
  double t_begin = 0.0, t_end = 0.0;
  if (is.peek() == '#') {
    std::getline(is, line);
    std::tie(t_begin, t_end) = parse_meta(line);
  }
  if (!std::getline(is, line)) throw std::runtime_error("csv_io: empty input");
  return {t_begin, t_end};
}

PacketRecord parse_packet_csv_row(const std::string& line,
                                  std::size_t line_no) {
  const auto f = split_csv_line(line);
  if (f.size() != 5) bad_line("expected 5 fields", line_no);
  PacketRecord r;
  r.time = parse_finite(f[0], "time", line_no);
  try {
    r.protocol = parse_protocol(f[1], line_no);
    r.conn_id = static_cast<std::uint32_t>(std::stoul(f[2]));
    r.from_originator = f[3] == "1";
    r.payload_bytes = static_cast<std::uint16_t>(std::stoul(f[4]));
  } catch (const std::logic_error&) {
    bad_line("malformed field", line_no);
  }
  return r;
}

void write_csv(const PacketTrace& trace, std::ostream& os) {
  write_packet_csv_header(os, trace.name(), trace.t_begin(), trace.t_end());
  for (const PacketRecord& r : trace.records()) write_packet_csv_row(os, r);
}

void write_csv_file(const PacketTrace& trace, const std::string& path) {
  auto os = open_out(path);
  write_csv(trace, os);
}

PacketTrace read_packet_csv(std::istream& is, std::string name) {
  // Lines the header takes: the metadata comment, if any, and the
  // column header.
  std::size_t line_no = is.peek() == '#' ? 2 : 1;
  const auto [t_begin, t_end] = read_packet_csv_header(is);

  PacketTrace trace(std::move(name), t_begin, t_end);
  double max_time = t_end;
  std::string line;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const PacketRecord r = parse_packet_csv_row(line, line_no);
    max_time = std::max(max_time, r.time);
    trace.add(r);
  }
  if (t_end <= t_begin) {
    PacketTrace fixed(trace.name(), t_begin, max_time);
    for (const auto& r : trace.records()) fixed.add(r);
    return fixed;
  }
  return trace;
}

PacketTrace read_packet_csv_file(const std::string& path) {
  auto is = open_in(path);
  return read_packet_csv(is, path);
}

}  // namespace wan::trace
