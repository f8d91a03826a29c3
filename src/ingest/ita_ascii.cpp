#include "src/ingest/ita_ascii.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <limits>
#include <string_view>

#include "src/ingest/classify.hpp"

namespace wan::ingest {

namespace {

// Tokenization and numeric parsing run per line over million-line
// archives, so both are locale-free and allocation-free:
// whitespace-splitting yields string_views into the getline buffer and
// std::from_chars parses in place — no istringstream construction, no
// strtod locale lookup, no c_str() copies.

/// Splits `line` on blanks (space, \t, \r, \v, \f) into at most N
/// tokens and returns their count, which stops at N: callers only ever
/// need to tell "fewer than N" from "at least N". A plain character
/// loop: string_view::find_first_of over the blank set cost almost four
/// times as much per line.
template <std::size_t N>
std::size_t split_ws(std::string_view line,
                     std::array<std::string_view, N>& out) {
  const auto blank = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
  };
  std::size_t count = 0;
  const char* p = line.data();
  const char* const end = p + line.size();
  while (count < N) {
    while (p != end && blank(*p)) ++p;
    if (p == end) break;
    const char* const begin = p;
    while (p != end && !blank(*p)) ++p;
    out[count++] = std::string_view(begin, p - begin);
  }
  return count;
}

/// Whole-token finite double. Stricter than the strtod it replaced: no
/// leading '+', no hex floats, no nan or inf — the archive formats write
/// none of them, and a non-finite time has no place on a time axis.
bool parse_double(std::string_view s, double* out) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || !std::isfinite(v))
    return false;
  *out = v;
  return true;
}

bool parse_u64(std::string_view s, std::uint64_t* out) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) return false;
  *out = v;
  return true;
}

bool skippable(std::string_view line) {
  for (char c : line) {
    if (c == '#') return true;
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;  // blank
}

}  // namespace

// --------------------------------------------------------- LblConnReader

LblConnReader::LblConnReader(const std::string& path, ParseMode mode)
    : is_(path), path_(path), mode_(mode) {
  if (!is_)
    throw std::runtime_error("lbl-conn: cannot open for read: " + path);
}

bool LblConnReader::next(trace::ConnRecord& out) {
  while (std::getline(is_, line_)) {
    ++line_no_;
    stats_.bytes += line_.size() + 1;
    if (skippable(line_)) continue;

    const auto where = [&] {
      return path_ + " line " + std::to_string(line_no_);
    };
    std::array<std::string_view, 7> fields;
    const std::size_t nfields = split_ws(std::string_view(line_), fields);
    if (nfields < 7) {
      report(stats_, &IngestStats::bad_lines, mode_,
             "lbl-conn line with " + std::to_string(nfields) +
                 " fields (need 7): " + where());
      continue;
    }

    trace::ConnRecord rec;
    if (!parse_double(fields[0], &rec.start)) {
      report(stats_, &IngestStats::bad_lines, mode_,
             "lbl-conn bad timestamp '" + std::string(fields[0]) +
                 "': " + where());
      continue;
    }
    // duration and the byte counters admit the archive's "?" (the
    // monitor missed that side of the connection).
    bool ok = true;
    if (fields[1] == "?") {
      ++stats_.missing_fields;
      rec.duration = 0.0;
    } else if (!parse_double(fields[1], &rec.duration) ||
               rec.duration < 0.0) {
      ok = false;
    }
    std::uint64_t host_a = 0, host_b = 0;
    for (int i = 0; ok && i < 2; ++i) {
      std::uint64_t* dst = i == 0 ? &rec.bytes_orig : &rec.bytes_resp;
      const std::string_view f = fields[3 + i];
      if (f == "?") {
        ++stats_.missing_fields;
        *dst = 0;
      } else if (!parse_u64(f, dst)) {
        ok = false;
      }
    }
    if (ok && (!parse_u64(fields[5], &host_a) ||
               !parse_u64(fields[6], &host_b) ||
               host_a > std::numeric_limits<std::uint32_t>::max() ||
               host_b > std::numeric_limits<std::uint32_t>::max())) {
      ok = false;
    }
    if (!ok) {
      report(stats_, &IngestStats::bad_lines, mode_,
             "lbl-conn unparsable field: " + where());
      continue;
    }
    rec.src_host = static_cast<std::uint32_t>(host_a);
    rec.dst_host = static_cast<std::uint32_t>(host_b);

    const auto proto = protocol_from_service(std::string(fields[2]));
    if (proto) {
      rec.protocol = *proto;
    } else {
      ++stats_.unknown_protocols;  // tolerated: analysis buckets as OTHER
      rec.protocol = trace::Protocol::kOther;
    }
    // SYN/FIN logs carry no session ground truth; burst analysis groups
    // by host pair (trace::SessionGrouping::kHostPair).
    rec.session_id = 0;

    if (any_ && rec.start < prev_start_) {
      report(stats_, &IngestStats::out_of_order, mode_,
             "lbl-conn timestamp went backwards: " + where());
    }
    if (!any_ || rec.start > prev_start_) prev_start_ = rec.start;
    any_ = true;

    ++stats_.records;
    out = rec;
    return true;
  }
  return false;
}

// ---------------------------------------------------------- LblPktReader

LblPktReader::LblPktReader(const std::string& path, ParseMode mode)
    : is_(path), path_(path), mode_(mode) {
  if (!is_)
    throw std::runtime_error("lbl-pkt: cannot open for read: " + path);
}

bool LblPktReader::next(RawPacket& out) {
  while (std::getline(is_, line_)) {
    ++line_no_;
    stats_.bytes += line_.size() + 1;
    if (skippable(line_)) continue;

    const auto where = [&] {
      return path_ + " line " + std::to_string(line_no_);
    };
    std::array<std::string_view, 6> fields;
    const std::size_t nfields = split_ws(std::string_view(line_), fields);
    if (nfields < 6) {
      report(stats_, &IngestStats::bad_lines, mode_,
             "lbl-pkt line with " + std::to_string(nfields) +
                 " fields (need 6): " + where());
      continue;
    }

    RawPacket pkt;
    std::uint64_t src = 0, dst = 0, sport = 0, dport = 0, payload = 0;
    if (!parse_double(fields[0], &pkt.time) || !parse_u64(fields[1], &src) ||
        !parse_u64(fields[2], &dst) || !parse_u64(fields[3], &sport) ||
        !parse_u64(fields[4], &dport) || !parse_u64(fields[5], &payload) ||
        src > std::numeric_limits<std::uint32_t>::max() ||
        dst > std::numeric_limits<std::uint32_t>::max() || sport > 65535 ||
        dport > 65535 || payload > 65535) {
      report(stats_, &IngestStats::bad_lines, mode_,
             "lbl-pkt unparsable field: " + where());
      continue;
    }
    pkt.src_ip = static_cast<std::uint32_t>(src);
    pkt.dst_ip = static_cast<std::uint32_t>(dst);
    pkt.src_port = static_cast<std::uint16_t>(sport);
    pkt.dst_port = static_cast<std::uint16_t>(dport);
    pkt.payload_bytes = static_cast<std::uint32_t>(payload);
    pkt.tcp = true;       // sanitize-tcp output is TCP by construction
    pkt.tcp_flags = 0;    // flags do not survive sanitization
    pkt.multicast = false;

    if (any_ && pkt.time < prev_time_) {
      report(stats_, &IngestStats::out_of_order, mode_,
             "lbl-pkt timestamp went backwards: " + where());
    }
    if (!any_ || pkt.time > prev_time_) prev_time_ = pkt.time;
    any_ = true;

    ++stats_.records;
    out = pkt;
    return true;
  }
  return false;
}

void LblPktReader::reset() {
  is_.clear();
  is_.seekg(0);
  if (!is_) throw std::runtime_error("lbl-pkt: reset seek failed: " + path_);
  stats_.clear();
  line_no_ = 0;
  prev_time_ = 0.0;
  any_ = false;
}

}  // namespace wan::ingest
