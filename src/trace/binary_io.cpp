#include "src/trace/binary_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace wan::trace {

namespace {

constexpr char kMagic[4] = {'W', 'A', 'N', 'T'};
constexpr std::uint32_t kVersion = 1;

// Records per read in read_packet_binary, so it holds one bounded
// chunk however long the trace.
constexpr std::size_t kChunkRecords = std::size_t{1} << 16;

// Records per stack block: 512 records, 8 KiB. Writes encode a block
// and make one os.write; reads make one is.read and decode a block. So
// the codec costs no heap memory however large the chunk.
constexpr std::size_t kBlockRecords = 512;

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("binary_io: truncated input");
  return v;
}

}  // namespace

std::uint64_t write_packet_header(std::ostream& os,
                                  const PacketFileHeader& header) {
  os.write(kMagic, 4);
  put(os, kVersion);
  put(os, header.t_begin);
  put(os, header.t_end);
  const auto name_len = static_cast<std::uint32_t>(header.name.size());
  put(os, name_len);
  os.write(header.name.data(), name_len);
  // magic + version + two doubles + name_len field + name bytes.
  const std::uint64_t count_offset = 4 + 4 + 8 + 8 + 4 + name_len;
  put(os, header.count);
  if (!os) throw std::runtime_error("binary_io: header write failed");
  return count_offset;
}

PacketFileHeader read_packet_header(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  if (!is || std::memcmp(magic, kMagic, 4) != 0)
    throw std::runtime_error("binary_io: bad magic");
  const auto version = get<std::uint32_t>(is);
  if (version != kVersion)
    throw std::runtime_error("binary_io: unsupported version " +
                             std::to_string(version));
  PacketFileHeader h;
  h.t_begin = get<double>(is);
  h.t_end = get<double>(is);
  if (!std::isfinite(h.t_begin) || !std::isfinite(h.t_end))
    throw std::runtime_error("binary_io: non-finite header time");
  const auto name_len = get<std::uint32_t>(is);
  if (name_len > 4096)
    throw std::runtime_error("binary_io: implausible name length");
  h.name.assign(name_len, '\0');
  is.read(h.name.data(), name_len);
  if (!is) throw std::runtime_error("binary_io: truncated name");
  h.count = get<std::uint64_t>(is);
  return h;
}

void write_packet_records(std::ostream& os,
                          std::span<const PacketRecord> records) {
  char buf[kBlockRecords * kPacketRecordBytes];
  for (std::size_t i = 0; i < records.size(); i += kBlockRecords) {
    const std::size_t n = std::min(kBlockRecords, records.size() - i);
    char* p = buf;
    for (const PacketRecord& r : records.subspan(i, n)) {
      const auto proto = static_cast<std::uint8_t>(r.protocol);
      const std::uint8_t orig = r.from_originator ? 1 : 0;
      std::memcpy(p, &r.time, 8);
      std::memcpy(p + 8, &proto, 1);
      std::memcpy(p + 9, &orig, 1);
      std::memcpy(p + 10, &r.payload_bytes, 2);
      std::memcpy(p + 12, &r.conn_id, 4);
      p += kPacketRecordBytes;
    }
    os.write(buf, p - buf);
  }
}

void read_packet_records(std::istream& is, std::size_t n,
                         std::vector<PacketRecord>& out) {
  constexpr auto kMaxProtocol = static_cast<std::uint8_t>(Protocol::kOther);
  char buf[kBlockRecords * kPacketRecordBytes];
  out.reserve(out.size() + n);
  for (std::size_t i = 0; i < n; i += kBlockRecords) {
    const std::size_t bytes =
        std::min(kBlockRecords, n - i) * kPacketRecordBytes;
    is.read(buf, static_cast<std::streamsize>(bytes));
    if (!is) throw std::runtime_error("binary_io: truncated input");
    for (const char* p = buf; p != buf + bytes; p += kPacketRecordBytes) {
      PacketRecord r;
      std::uint8_t proto = 0, orig = 0;
      std::memcpy(&r.time, p, 8);
      std::memcpy(&proto, p + 8, 1);
      std::memcpy(&orig, p + 9, 1);
      std::memcpy(&r.payload_bytes, p + 10, 2);
      std::memcpy(&r.conn_id, p + 12, 4);
      if (!std::isfinite(r.time))
        throw std::runtime_error("binary_io: non-finite packet time");
      if (proto > kMaxProtocol)
        throw std::runtime_error("binary_io: unknown protocol byte");
      r.protocol = static_cast<Protocol>(proto);
      r.from_originator = orig != 0;
      out.push_back(r);
    }
  }
}

void write_binary(const PacketTrace& trace, std::ostream& os) {
  write_packet_header(os, {trace.name(), trace.t_begin(), trace.t_end(),
                           static_cast<std::uint64_t>(trace.size())});
  write_packet_records(os, trace.records());
  if (!os) throw std::runtime_error("binary_io: write failed");
}

void write_binary_file(const PacketTrace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("binary_io: cannot open " + path);
  write_binary(trace, os);
}

PacketTrace read_packet_binary(std::istream& is) {
  PacketFileHeader h = read_packet_header(is);
  PacketTrace trace(std::move(h.name), h.t_begin, h.t_end);
  trace.reserve(h.count);
  std::vector<PacketRecord> chunk;
  for (std::uint64_t left = h.count; left > 0;) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(left, kChunkRecords));
    chunk.clear();
    read_packet_records(is, n, chunk);
    for (const PacketRecord& r : chunk) trace.add(r);
    left -= n;
  }
  return trace;
}

PacketTrace read_packet_binary_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("binary_io: cannot open " + path);
  return read_packet_binary(is);
}

}  // namespace wan::trace
