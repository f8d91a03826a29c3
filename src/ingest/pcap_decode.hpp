// pcap parsing primitives: the global-header fields, the endian
// helpers, and the frame/IP/transport decode that turns one captured
// record into a RawPacket. MmapPcapReader calls them from both of its
// record paths — the inline decode in its mapped walk and the
// out-of-line one in read_record — so the two accept the same frames
// and write the same ledger.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/ingest/ingest_stats.hpp"
#include "src/ingest/raw_packet.hpp"

namespace wan::ingest {

/// Upper bound on a record's captured length. Real snap lengths top out
/// at 256 KiB; a length field above this is corruption, and because a
/// pcap stream has no resync marker the reader stops at that point.
inline constexpr std::uint32_t kMaxCaptureBytes = 1u << 20;

// Supported link-layer types (the global header's last field).
inline constexpr std::uint32_t kLinkLoop = 0;    ///< BSD loopback
inline constexpr std::uint32_t kLinkEther = 1;   ///< Ethernet
inline constexpr std::uint32_t kLinkRawOld = 12; ///< raw IP (older BSDs)
inline constexpr std::uint32_t kLinkRaw = 101;   ///< raw IP

inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint32_t bswap32(std::uint32_t v) {
  return ((v & 0x000000FFu) << 24) | ((v & 0x0000FF00u) << 8) |
         ((v & 0x00FF0000u) >> 8) | ((v & 0xFF000000u) >> 24);
}

inline std::uint16_t load_be16(const unsigned char* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

inline std::uint32_t load_be32(const unsigned char* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

/// Decoded 24-byte global header. Default state is "unusable" — ok only
/// turns true when the magic, version and link type all check out.
struct PcapHeader {
  bool ok = false;
  bool swap = false;       ///< header fields are opposite-endian
  double tick = 1e-6;      ///< 1e-6 (usec magic) or 1e-9 (nsec magic)
  std::uint32_t linktype = 1;

  std::uint32_t u32(const unsigned char* p) const {
    const std::uint32_t v = load_le32(p);
    return swap ? bswap32(v) : v;
  }
  std::uint16_t u16(const unsigned char* p) const {
    const std::uint16_t v =
        static_cast<std::uint16_t>(p[0] | (static_cast<unsigned>(p[1]) << 8));
    return swap ? static_cast<std::uint16_t>((v >> 8) | (v << 8)) : v;
  }
};

/// Parses the 24-byte global header at `h` (len bytes available).
/// Defects land in the ledger through the report() choke point — a
/// short header, a bad magic, an unsupported version or link type each
/// count one bad_headers and leave ok == false.
PcapHeader parse_pcap_header(const unsigned char* h, std::size_t len,
                             IngestStats& stats, ParseMode mode,
                             const std::string& path);

/// Decodes one captured frame (`data`, `len` bytes, already bounded by
/// incl_len) into `out` per the header's link type. Returns true when
/// the frame yielded an IPv4 TCP/UDP packet; otherwise the reason is
/// counted (skipped_frames / short_captures / unknown_transports /
/// bad_headers) and false comes back. Does not touch out.time.
bool decode_pcap_frame(const PcapHeader& header, const unsigned char* data,
                       std::size_t len, RawPacket& out, IngestStats& stats,
                       ParseMode mode, const std::string& path);

/// The frame decode, inline. decode_pcap_frame is a one-line wrapper
/// around this (see pcap_decode.cpp), so there is still exactly one
/// implementation; the mmap reader's batch loop calls this directly to
/// let the whole per-record decode inline into its hot loop.
inline bool decode_pcap_frame_inline(const PcapHeader& header,
                                     const unsigned char* data,
                                     std::size_t len, RawPacket& out,
                                     IngestStats& stats, ParseMode mode,
                                     const std::string& path) {
  std::size_t off = 0;
  switch (header.linktype) {
    case kLinkEther: {
      if (len < 14) {
        ++stats.short_captures;
        return false;
      }
      std::uint16_t ethertype = load_be16(data + 12);
      off = 14;
      // 802.1Q / 802.1ad VLAN tags: each inserts 4 bytes (TCI + the
      // real ethertype) after the MACs. Stacked tags (QinQ) nest at
      // most a handful deep; 4 covers every capture seen in the wild
      // and bounds the loop against a crafted tag chain.
      int tags = 0;
      for (; (ethertype == 0x8100 || ethertype == 0x88A8) && tags < 4;
           ++tags) {
        if (len < off + 4) {
          ++stats.short_captures;
          return false;
        }
        ethertype = load_be16(data + off + 2);
        off += 4;
      }
      if (tags > 0) ++stats.vlan_frames;  // one tagged frame, however deep
      if (ethertype != 0x0800) {  // not IPv4
        ++stats.skipped_frames;
        return false;
      }
      break;
    }
    case kLinkLoop: {
      if (len < 4) {
        ++stats.short_captures;
        return false;
      }
      // The 4-byte family is written in the *capturing* host's byte
      // order; AF_INET == 2 in either reading means IPv4.
      const std::uint32_t fam_le = load_le32(data);
      const std::uint32_t fam_be = load_be32(data);
      if (fam_le != 2 && fam_be != 2) {
        ++stats.skipped_frames;
        return false;
      }
      off = 4;
      break;
    }
    case kLinkRaw:
    case kLinkRawOld:
      off = 0;
      break;
    default:
      ++stats.skipped_frames;  // unreachable: header parse validates
      return false;
  }

  const unsigned char* p = data + off;
  len -= off;
  if (len < 20) {
    ++stats.short_captures;
    return false;
  }
  const unsigned version = p[0] >> 4;
  if (version != 4) {
    ++stats.skipped_frames;
    return false;
  }
  const std::size_t ihl = static_cast<std::size_t>(p[0] & 0x0F) * 4;
  const std::uint16_t total_len = load_be16(p + 2);
  if (ihl < 20 || total_len < ihl) {
    report(stats, &IngestStats::bad_headers, mode,
           "IPv4 header with impossible lengths: " + path);
    return false;
  }
  const std::uint16_t frag = load_be16(p + 6);
  if ((frag & 0x1FFF) != 0) {  // non-first fragment: no transport header
    ++stats.skipped_frames;
    return false;
  }
  if (len < ihl) {
    ++stats.short_captures;
    return false;
  }

  out.src_ip = load_be32(p + 12);
  out.dst_ip = load_be32(p + 16);
  out.multicast = (out.dst_ip >> 28) == 0xE;

  const unsigned char* tp = p + ihl;
  const std::size_t tlen = len - ihl;
  switch (p[9]) {
    case 6: {  // TCP
      // Ports, data offset and flags live in the first 14 bytes.
      if (tlen < 14) {
        ++stats.short_captures;
        return false;
      }
      out.tcp = true;
      out.src_port = load_be16(tp);
      out.dst_port = load_be16(tp + 2);
      const std::size_t doff = static_cast<std::size_t>(tp[12] >> 4) * 4;
      out.tcp_flags = tp[13];
      if (doff < 20 || total_len < ihl + doff) {
        report(stats, &IngestStats::bad_headers, mode,
               "TCP header with impossible data offset: " + path);
        return false;
      }
      out.payload_bytes = static_cast<std::uint32_t>(total_len - ihl - doff);
      return true;
    }
    case 17: {  // UDP
      if (tlen < 8) {
        ++stats.short_captures;
        return false;
      }
      out.tcp = false;
      out.tcp_flags = 0;
      out.src_port = load_be16(tp);
      out.dst_port = load_be16(tp + 2);
      const std::uint16_t udp_len = load_be16(tp + 4);
      if (udp_len < 8) {
        report(stats, &IngestStats::bad_headers, mode,
               "UDP header with impossible length: " + path);
        return false;
      }
      out.payload_bytes = static_cast<std::uint32_t>(udp_len - 8);
      return true;
    }
    default:
      ++stats.unknown_transports;
      return false;
  }
}

}  // namespace wan::ingest
