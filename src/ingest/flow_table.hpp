// Flow reconstruction: folds a stream of RawPackets into the repo's two
// analysis record types. A 4-tuple hash table tracks every live flow;
// TCP state bits drive connection boundaries the way a SYN/FIN monitor
// would see them, and an idle timeout sweeps up flows whose endings the
// capture missed:
//
//   * a SYN without ACK marks its sender as the originator (otherwise
//     the first packet's sender is assumed to originate);
//   * FIN in both directions, or any RST, closes the connection at that
//     packet;
//   * a flow idle longer than `idle_timeout` is evicted when the clock
//     (max timestamp seen) passes its horizon — essential for the ASCII
//     packet formats, where no flag bits survive sanitization;
//   * at end of input, flush() closes everything still open.
//
// Each closed flow becomes a ConnRecord (start, duration, per-direction
// payload bytes, port-classified protocol); every packet becomes a
// PacketRecord carrying its flow's conn_id and protocol, so ingested
// traces are indistinguishable from synthesized ones downstream.
//
// FTPDATA grouping: an open FTP control connection between two hosts
// stamps its conn_id as session_id onto FTPDATA flows between the same
// host pair, which is exactly what trace::find_ftp_bursts needs for the
// paper's Section-VI burst analysis.
//
// Storage: open addressing with linear probing over a flat bucket
// array, flows in a stable slot vector, and an intrusive array-indexed
// LRU — one cache line of probing per packet, with no node allocation,
// pointer chase or list splice. Deletion is backward-shift, so probe
// chains stay gap-free without tombstones; slot indices are stable
// across growth because only the bucket array rebuilds. Every
// observable decision — conn ids, host ids, eviction and reincarnation
// order, ConnRecords — is pinned by the `ingest`-labeled tests
// (FlowTableGoldenPins and the fixture pins).
//
// Memory is O(open flows + hosts), never O(packets) — the table is what
// lets week-scale captures stream through in bounded memory.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/ingest/raw_packet.hpp"
#include "src/stream/columnar.hpp"
#include "src/trace/records.hpp"

namespace wan::ingest {

struct FlowTableConfig {
  /// Idle seconds after which an open flow is considered dead. The
  /// paper's SYN/FIN analysis has no notion of keepalive, so the
  /// default is a conservative one hour.
  double idle_timeout = 3600.0;
  /// Collect ConnRecords of closed flows (take_closed). Packet-only
  /// consumers turn this off so closed-flow records cannot accumulate.
  bool collect_connections = true;
};

class FlowTable {
 public:
  explicit FlowTable(FlowTableConfig config = {});

  /// Folds one packet into the table and returns its analysis record.
  /// Advances the eviction clock to the packet's time (monotone max).
  /// Defined inline below: this is the per-packet hot path of the fused
  /// ingest loop.
  trace::PacketRecord add(const RawPacket& pkt);

  /// add(), but the record lands directly in a columnar chunk — the
  /// zero-copy ingest path decodes a frame and appends its fields
  /// straight to the SoA columns with no AoS row buffer in between.
  void add_append(const RawPacket& pkt, stream::PacketColumns& out) {
    out.push_back(add(pkt));
  }

  /// Closes every still-open flow (oldest first). Call at end of input.
  void flush();

  /// Moves the ConnRecords of flows closed since the last call into
  /// `out` (appending, closure order). No-op when collect_connections
  /// is off.
  void take_closed(std::vector<trace::ConnRecord>& out);

  /// Forgets everything: open flows, closed records, host numbering,
  /// conn-id counter. A reset() source rebuilds identical ids.
  void clear();

  std::size_t open_flows() const { return live_; }
  std::size_t host_count() const { return hosts_.size(); }
  std::uint32_t connections_seen() const { return next_conn_id_ - 1; }

 private:
  /// Sentinel slot/link index: "none".
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kInitialBuckets = 1024;  // power of two

  /// One live flow: canonical key, connection state and cached hash.
  /// Slots never move — only the bucket array rebuilds on growth — so a
  /// slot index is a stable flow handle. Field order packs everything
  /// the per-packet path reads (key compare, originator test, byte and
  /// FIN accounting, record fields) into the first cache line; the
  /// open/close-only fields follow. The LRU links live in the separate
  /// links_ array, not here: the per-packet LRU splice touches three
  /// flows' links, and keeping those in a dense side array means that
  /// traffic stays within a few hot cache lines instead of pulling in
  /// three full Flow structs.
  struct Flow {
    // Canonical key: (ip_a, port_a) is the lexicographically smaller
    // endpoint, so both directions of a flow map to the same entry.
    std::uint32_t ip_a = 0, ip_b = 0;
    std::uint16_t port_a = 0, port_b = 0;
    bool tcp = true;
    bool fin_orig = false, fin_resp = false;
    trace::Protocol protocol = trace::Protocol::kOther;

    std::uint32_t conn_id = 0;
    std::uint32_t orig_ip = 0;
    std::uint16_t orig_port = 0;
    double last = 0.0;
    std::uint64_t bytes_orig = 0, bytes_resp = 0;

    // Cold half: touched only on open/close.
    std::uint32_t resp_ip = 0;
    std::uint16_t resp_port = 0;
    double first = 0.0;
    std::uint64_t session_id = 0;
    std::uint64_t hash = 0;  ///< cached key hash (probe start on erase)
  };

  /// Intrusive LRU links of slot i, dense so splices stay in cache.
  struct Link {
    std::uint32_t prev = kNil, next = kNil;
  };

  /// One probe cell: cached hash (so probing rarely touches the slot
  /// vector) and the slot it points at, kNil when empty.
  struct Bucket {
    std::uint64_t hash = 0;
    std::uint32_t slot = kNil;
  };

  // The per-packet path — hash, probe, LRU touch — is defined in this
  // header so it inlines into the fused ingest loop; the cold flow
  // open/close machinery stays out of line in flow_table.cpp.

  /// splitmix64-style mix of the packed tuple; the table only needs
  /// decent dispersion, not cryptographic strength.
  static std::uint64_t mix_key(std::uint32_t ip_a, std::uint32_t ip_b,
                               std::uint16_t port_a, std::uint16_t port_b,
                               bool tcp) noexcept {
    std::uint64_t x = (static_cast<std::uint64_t>(ip_a) << 32) ^ ip_b;
    x ^= (static_cast<std::uint64_t>(port_a) << 48) ^
         (static_cast<std::uint64_t>(port_b) << 16) ^
         (tcp ? 0x9E3779B97F4A7C15ull : 0xC2B2AE3D27D4EB4Full);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
  }

  std::uint32_t host_id(std::uint32_t ip);
  std::uint32_t find_slot(std::uint64_t hash, std::uint32_t ip_a,
                          std::uint32_t ip_b, std::uint16_t port_a,
                          std::uint16_t port_b, bool tcp) const {
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t i = hash & mask; buckets_[i].slot != kNil;
         i = (i + 1) & mask) {
      if (buckets_[i].hash != hash) continue;
      const Flow& f = slots_[buckets_[i].slot];
      if (f.ip_a == ip_a && f.ip_b == ip_b && f.port_a == port_a &&
          f.port_b == port_b && f.tcp == tcp)
        return buckets_[i].slot;
    }
    return kNil;
  }
  std::uint32_t open_flow(std::uint64_t hash, std::uint32_t ip_a,
                          std::uint32_t ip_b, std::uint16_t port_a,
                          std::uint16_t port_b, const RawPacket& pkt);
  void close_flow(std::uint32_t slot);
  void evict_idle();

  void insert_bucket(std::uint64_t hash, std::uint32_t slot);
  void erase_bucket_of(std::uint32_t slot);
  void grow();

  void lru_push_back(std::uint32_t slot) {
    Link& l = links_[slot];
    l.prev = lru_tail_;
    l.next = kNil;
    if (lru_tail_ != kNil) {
      links_[lru_tail_].next = slot;
    } else {
      lru_head_ = slot;
    }
    lru_tail_ = slot;
  }
  void lru_unlink(std::uint32_t slot) {
    Link& l = links_[slot];
    if (l.prev != kNil) {
      links_[l.prev].next = l.next;
    } else {
      lru_head_ = l.next;
    }
    if (l.next != kNil) {
      links_[l.next].prev = l.prev;
    } else {
      lru_tail_ = l.prev;
    }
    l.prev = l.next = kNil;
  }
  void lru_move_back(std::uint32_t slot) {
    if (lru_tail_ == slot) return;  // already most recent
    lru_unlink(slot);
    lru_push_back(slot);
  }

  FlowTableConfig config_;
  std::vector<Bucket> buckets_;  ///< power-of-two, ≤ 70% full
  std::vector<Flow> slots_;      ///< stable storage; dead slots on free_
  std::vector<Link> links_;      ///< LRU links of slots_, index-aligned
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
  std::uint32_t lru_head_ = kNil;  ///< least recently touched
  std::uint32_t lru_tail_ = kNil;  ///< most recently touched
  std::unordered_map<std::uint32_t, std::uint32_t> hosts_;
  /// Unordered host-ip pair -> conn_id of the open FTP control flow.
  std::unordered_map<std::uint64_t, std::uint32_t> ftp_sessions_;
  std::vector<trace::ConnRecord> closed_;
  std::uint32_t next_conn_id_ = 1;
  double clock_ = 0.0;
  bool any_ = false;
};

inline trace::PacketRecord FlowTable::add(const RawPacket& pkt) {
  if (!any_ || pkt.time > clock_) clock_ = pkt.time;
  any_ = true;
  // Eviction check inline, the (rare) eviction walk out of line.
  if (lru_head_ != kNil &&
      clock_ - slots_[lru_head_].last > config_.idle_timeout)
    evict_idle();

  const bool a_first =
      pkt.src_ip < pkt.dst_ip ||
      (pkt.src_ip == pkt.dst_ip && pkt.src_port <= pkt.dst_port);
  const std::uint32_t ip_a = a_first ? pkt.src_ip : pkt.dst_ip;
  const std::uint16_t port_a = a_first ? pkt.src_port : pkt.dst_port;
  const std::uint32_t ip_b = a_first ? pkt.dst_ip : pkt.src_ip;
  const std::uint16_t port_b = a_first ? pkt.dst_port : pkt.src_port;
  const std::uint64_t hash = mix_key(ip_a, ip_b, port_a, port_b, pkt.tcp);

  std::uint32_t s = find_slot(hash, ip_a, ip_b, port_a, port_b, pkt.tcp);
  if (s == kNil) s = open_flow(hash, ip_a, ip_b, port_a, port_b, pkt);
  Flow& flow = slots_[s];

  const bool from_orig =
      pkt.src_ip == flow.orig_ip && pkt.src_port == flow.orig_port;
  if (pkt.time > flow.last) flow.last = pkt.time;
  if (from_orig) {
    flow.bytes_orig += pkt.payload_bytes;
  } else {
    flow.bytes_resp += pkt.payload_bytes;
  }
  lru_move_back(s);  // most recently touched

  trace::PacketRecord rec;
  rec.time = pkt.time;
  rec.protocol = flow.protocol;
  rec.conn_id = flow.conn_id;
  rec.from_originator = from_orig;
  rec.payload_bytes = static_cast<std::uint16_t>(
      pkt.payload_bytes > 0xFFFF ? 0xFFFF : pkt.payload_bytes);

  if (pkt.tcp) {
    if (pkt.tcp_flags & kTcpFin) {
      (from_orig ? flow.fin_orig : flow.fin_resp) = true;
    }
    const bool both_fins = flow.fin_orig && flow.fin_resp;
    if ((pkt.tcp_flags & kTcpRst) || both_fins) close_flow(s);
  }
  return rec;
}

}  // namespace wan::ingest
