#include "src/ingest/pcap_decode.hpp"

namespace wan::ingest {

namespace {

// The four classic magics, read as a little-endian u32. "Swapped" means
// every header field must be byte-reversed relative to how this host
// reads the file.
constexpr std::uint32_t kMagicUsec = 0xA1B2C3D4;      // native usec
constexpr std::uint32_t kMagicUsecSwap = 0xD4C3B2A1;  // swapped usec
constexpr std::uint32_t kMagicNsec = 0xA1B23C4D;      // native nsec
constexpr std::uint32_t kMagicNsecSwap = 0x4D3CB2A1;  // swapped nsec

}  // namespace

PcapHeader parse_pcap_header(const unsigned char* h, std::size_t len,
                             IngestStats& stats, ParseMode mode,
                             const std::string& path) {
  PcapHeader header;
  if (len < 24) {
    report(stats, &IngestStats::bad_headers, mode,
           "pcap global header truncated: " + path);
    return header;
  }

  const std::uint32_t magic = load_le32(h);
  switch (magic) {
    case kMagicUsec: header.swap = false; header.tick = 1e-6; break;
    case kMagicUsecSwap: header.swap = true; header.tick = 1e-6; break;
    case kMagicNsec: header.swap = false; header.tick = 1e-9; break;
    case kMagicNsecSwap: header.swap = true; header.tick = 1e-9; break;
    default:
      report(stats, &IngestStats::bad_headers, mode,
             "not a pcap file (bad magic): " + path);
      return header;
  }

  const std::uint16_t version_major = header.u16(h + 4);
  header.linktype = header.u32(h + 20);
  if (version_major != 2) {
    report(stats, &IngestStats::bad_headers, mode,
           "unsupported pcap version " + std::to_string(version_major) +
               ": " + path);
    return header;
  }
  if (header.linktype != kLinkEther && header.linktype != kLinkLoop &&
      header.linktype != kLinkRaw && header.linktype != kLinkRawOld) {
    report(stats, &IngestStats::bad_headers, mode,
           "unsupported pcap link type " + std::to_string(header.linktype) +
               ": " + path);
    return header;
  }

  header.ok = true;
  return header;
}

bool decode_pcap_frame(const PcapHeader& header, const unsigned char* data,
                       std::size_t len, RawPacket& out, IngestStats& stats,
                       ParseMode mode, const std::string& path) {
  // One implementation only: the inline body in pcap_decode.hpp. This
  // out-of-line wrapper is what MmapPcapReader::read_record calls.
  return decode_pcap_frame_inline(header, data, len, out, stats, mode, path);
}

}  // namespace wan::ingest
