#include "src/ingest/pcap_writer.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "src/ingest/raw_packet.hpp"

namespace wan::ingest {

namespace {

void put_u32le(unsigned char* p, std::uint32_t v) {
  p[0] = v & 0xFF;
  p[1] = (v >> 8) & 0xFF;
  p[2] = (v >> 16) & 0xFF;
  p[3] = (v >> 24) & 0xFF;
}

void put_u16be(unsigned char* p, std::uint16_t v) {
  p[0] = (v >> 8) & 0xFF;
  p[1] = v & 0xFF;
}

void put_u32be(unsigned char* p, std::uint32_t v) {
  p[0] = (v >> 24) & 0xFF;
  p[1] = (v >> 16) & 0xFF;
  p[2] = (v >> 8) & 0xFF;
  p[3] = v & 0xFF;
}

constexpr std::size_t kHeaderBytes = 24;            // pcap global header
constexpr std::size_t kFrameBytes = 14 + 20 + 20;  // eth + ip + tcp
constexpr std::size_t kRecordBytes = 16 + kFrameBytes;
constexpr std::size_t kBlockBytes = std::size_t{64} << 10;  // file comment
// The most a 16-bit IP total length holds past the two 20-byte headers.
constexpr std::uint16_t kMaxPayloadBytes = 0xFFFF - 40;

/// The responder-side well-known port that classify_tcp maps back to
/// `p`. FTPDATA is the exception (active mode: the *originator* binds
/// port 20) and is handled at the call site; MBONE is UDP multicast
/// and not representable as TCP, so it degrades to an OTHER port.
std::uint16_t responder_port_for(trace::Protocol p) {
  switch (p) {
    case trace::Protocol::kTelnet: return 23;
    case trace::Protocol::kRlogin: return 513;
    case trace::Protocol::kFtpCtrl: return 21;
    case trace::Protocol::kSmtp: return 25;
    case trace::Protocol::kNntp: return 119;
    case trace::Protocol::kWww: return 80;
    case trace::Protocol::kX11: return 6000;
    case trace::Protocol::kDns: return 53;
    default: return 49152;  // classifies as OTHER
  }
}

}  // namespace

PcapFileWriter::PcapFileWriter(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc),
      block_(new unsigned char[kBlockBytes]) {
  if (!out_) throw std::runtime_error("pcap_writer: cannot create " + path);
  unsigned char* h = block_.get();
  std::memset(h, 0, kHeaderBytes);
  put_u32le(h + 0, 0xA1B2C3D4);  // usec magic, native little-endian
  h[4] = 2;                      // version 2.4
  h[6] = 4;
  put_u32le(h + 16, 65535);  // snaplen
  put_u32le(h + 20, 1);      // LINKTYPE_ETHERNET
  used_ = kHeaderBytes;
}

PcapFileWriter::~PcapFileWriter() { write_block(); }

void PcapFileWriter::write_block() {
  out_.write(reinterpret_cast<const char*>(block_.get()),
             static_cast<std::streamsize>(used_));
  used_ = 0;
}

void PcapFileWriter::flush() {
  write_block();
  out_.flush();
  if (!out_) throw std::runtime_error("pcap_writer: write failed");
}

void PcapFileWriter::write_tcp(double time, std::uint32_t src_ip,
                               std::uint32_t dst_ip, std::uint16_t src_port,
                               std::uint16_t dst_port, std::uint8_t tcp_flags,
                               std::uint16_t payload_bytes) {
  // Past 2^31 s a double's spacing exceeds a microsecond, so the carry
  // below cannot take sec past 2^32 - 1.
  if (!(time >= 0.0 && time < 0x1p32))
    throw std::invalid_argument(
        "pcap_writer: time outside a record's [0, 2^32) seconds");
  if (payload_bytes > kMaxPayloadBytes)
    throw std::invalid_argument(
        "pcap_writer: payload beyond the IP total length's 65495 bytes");
  std::uint32_t sec = static_cast<std::uint32_t>(time);
  std::uint32_t usec =
      static_cast<std::uint32_t>(std::llround((time - sec) * 1e6));
  if (usec >= 1000000) {  // rounding carried into the next second
    usec -= 1000000;
    ++sec;
  }

  if (used_ + kRecordBytes > kBlockBytes) {
    write_block();
    if (!out_) throw std::runtime_error("pcap_writer: write failed");
  }
  unsigned char* rec = block_.get() + used_;
  used_ += kRecordBytes;
  std::memset(rec, 0, kRecordBytes);
  put_u32le(rec + 0, sec);
  put_u32le(rec + 4, usec);
  put_u32le(rec + 8, kFrameBytes);                  // incl_len: headers only
  put_u32le(rec + 12, kFrameBytes + payload_bytes); // orig_len

  unsigned char* eth = rec + 16;
  eth[12] = 0x08;  // ethertype IPv4
  eth[13] = 0x00;

  unsigned char* ip = eth + 14;
  ip[0] = 0x45;  // v4, ihl 5
  put_u16be(ip + 2, static_cast<std::uint16_t>(40 + payload_bytes));
  ip[8] = 64;  // ttl
  ip[9] = 6;   // TCP
  put_u32be(ip + 12, src_ip);
  put_u32be(ip + 16, dst_ip);

  unsigned char* tcp = ip + 20;
  put_u16be(tcp + 0, src_port);
  put_u16be(tcp + 2, dst_port);
  tcp[12] = 5 << 4;  // data offset
  tcp[13] = tcp_flags;
  put_u16be(tcp + 14, 8192);  // window
}

void PcapRecordEncoder::add(const trace::PacketRecord& r) {
  auto [it, fresh] = conns_.try_emplace(r.conn_id);
  Conn& c = it->second;
  if (fresh) {
    // Distinct host pair per connection id, with the port carrying
    // the high id bits so 4-tuples stay unique while the host space
    // (and the flow table's host map) stays bounded at 2 * 4096.
    const std::uint32_t low = r.conn_id & 0xFFF;
    c.orig_ip = 0x0A000000u | low;   // 10.0.x.y
    c.resp_ip = 0xC0A80000u | low;   // 192.168.x.y
    const std::uint16_t eph =
        static_cast<std::uint16_t>(40000 + (r.conn_id >> 12) % 20000);
    if (r.protocol == trace::Protocol::kFtpData) {
      c.orig_port = 20;  // active mode: classify keys the originator
      c.resp_port = eph;
    } else {
      c.orig_port = eph;
      c.resp_port = responder_port_for(r.protocol);
    }
  }

  std::uint8_t flags = kTcpAck;
  if (!c.started) {
    // First packet establishes the originator: a bare SYN marks the
    // sender, a SYN|ACK marks the receiver — so a connection whose
    // first record travels responder->originator still reconstructs
    // with the right orientation.
    flags = r.from_originator ? kTcpSyn
                              : static_cast<std::uint8_t>(kTcpSyn | kTcpAck);
    c.started = true;
  }
  if (r.from_originator) {
    writer_.write_tcp(r.time, c.orig_ip, c.resp_ip, c.orig_port, c.resp_port,
                      flags, r.payload_bytes);
  } else {
    writer_.write_tcp(r.time, c.resp_ip, c.orig_ip, c.resp_port, c.orig_port,
                      flags, r.payload_bytes);
  }
}

void write_pcap_for_records(const std::string& path,
                            std::span<const trace::PacketRecord> records) {
  PcapRecordEncoder encoder(path);
  for (const trace::PacketRecord& r : records) encoder.add(r);
  encoder.flush();
}

}  // namespace wan::ingest
