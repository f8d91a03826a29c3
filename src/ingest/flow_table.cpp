#include "src/ingest/flow_table.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "src/ingest/classify.hpp"

namespace wan::ingest {

namespace {

std::uint64_t host_pair_key(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t lo = a < b ? a : b;
  const std::uint32_t hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

}  // namespace

FlowTable::FlowTable(FlowTableConfig config)
    : config_(config), buckets_(kInitialBuckets) {
  if (!(config_.idle_timeout > 0.0)) {  // NaN fails the comparison too
    char value[32];
    std::snprintf(value, sizeof value, "%g", config_.idle_timeout);
    throw std::invalid_argument(
        std::string("flow table: the idle timeout must be a positive "
                    "number of seconds, not ") +
        value);
  }
}

std::uint32_t FlowTable::host_id(std::uint32_t ip) {
  const auto [it, inserted] =
      hosts_.emplace(ip, static_cast<std::uint32_t>(hosts_.size() + 1));
  (void)inserted;
  return it->second;
}

// --------------------------------------------------------------- buckets

void FlowTable::insert_bucket(std::uint64_t hash, std::uint32_t slot) {
  const std::size_t mask = buckets_.size() - 1;
  std::size_t i = hash & mask;
  while (buckets_[i].slot != kNil) i = (i + 1) & mask;
  buckets_[i].hash = hash;
  buckets_[i].slot = slot;
}

void FlowTable::erase_bucket_of(std::uint32_t slot) {
  const std::size_t mask = buckets_.size() - 1;
  std::size_t hole = slots_[slot].hash & mask;
  while (buckets_[hole].slot != slot) hole = (hole + 1) & mask;

  // Backward-shift deletion: pull every displaced element of the probe
  // chain into the hole so lookups never need tombstones. An element at
  // j may move into the hole iff the hole lies on its probe path, i.e.
  // between its ideal cell and j (cyclically).
  std::size_t j = hole;
  while (true) {
    j = (j + 1) & mask;
    if (buckets_[j].slot == kNil) break;
    const std::size_t ideal = buckets_[j].hash & mask;
    if (((j - ideal) & mask) >= ((j - hole) & mask)) {
      buckets_[hole] = buckets_[j];
      hole = j;
    }
  }
  buckets_[hole].slot = kNil;
}

void FlowTable::grow() {
  buckets_.assign(buckets_.size() * 2, Bucket{});
  // Reinsert every live flow; the LRU chain enumerates exactly those.
  // Linear probing has no insertion-order dependence that any lookup
  // can observe, so rebuild order does not affect behaviour.
  for (std::uint32_t s = lru_head_; s != kNil; s = links_[s].next)
    insert_bucket(slots_[s].hash, s);
}

// ------------------------------------------------------------ flow logic

std::uint32_t FlowTable::open_flow(std::uint64_t hash, std::uint32_t ip_a,
                                   std::uint32_t ip_b, std::uint16_t port_a,
                                   std::uint16_t port_b,
                                   const RawPacket& pkt) {
  if ((live_ + 1) * 10 > buckets_.size() * 7) grow();

  std::uint32_t s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
    slots_[s] = Flow{};
    links_[s] = Link{};
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    links_.emplace_back();
  }
  Flow& flow = slots_[s];
  flow.ip_a = ip_a;
  flow.ip_b = ip_b;
  flow.port_a = port_a;
  flow.port_b = port_b;
  flow.tcp = pkt.tcp;
  flow.hash = hash;

  flow.conn_id = next_conn_id_++;
  // A SYN+ACK means we caught the responder's half of the handshake
  // first: the originator is the other endpoint. Any other first packet
  // (plain SYN included) marks its sender as originator.
  const bool syn = (pkt.tcp_flags & kTcpSyn) != 0;
  const bool ack = (pkt.tcp_flags & kTcpAck) != 0;
  const bool reversed = pkt.tcp && syn && ack;
  flow.orig_ip = reversed ? pkt.dst_ip : pkt.src_ip;
  flow.orig_port = reversed ? pkt.dst_port : pkt.src_port;
  flow.resp_ip = reversed ? pkt.src_ip : pkt.dst_ip;
  flow.resp_port = reversed ? pkt.src_port : pkt.dst_port;
  flow.first = flow.last = pkt.time;
  flow.protocol = pkt.tcp ? classify_tcp(flow.resp_port, flow.orig_port)
                          : classify_udp(flow.resp_port, flow.orig_port,
                                         pkt.multicast);

  // Host ids are assigned in flow-open order (originator before
  // responder), so a reset + re-ingest reproduces identical numbering.
  host_id(flow.orig_ip);
  host_id(flow.resp_ip);

  const std::uint64_t pair = host_pair_key(flow.orig_ip, flow.resp_ip);
  if (flow.protocol == trace::Protocol::kFtpCtrl) {
    ftp_sessions_[pair] = flow.conn_id;
  } else if (flow.protocol == trace::Protocol::kFtpData) {
    const auto it = ftp_sessions_.find(pair);
    flow.session_id = it != ftp_sessions_.end() ? it->second : 0;
  }

  insert_bucket(hash, s);
  lru_push_back(s);
  ++live_;
  return s;
}

void FlowTable::close_flow(std::uint32_t slot) {
  Flow& flow = slots_[slot];

  if (config_.collect_connections) {
    trace::ConnRecord rec;
    rec.start = flow.first;
    rec.duration = flow.last - flow.first;
    rec.protocol = flow.protocol;
    rec.src_host = host_id(flow.orig_ip);
    rec.dst_host = host_id(flow.resp_ip);
    rec.bytes_orig = flow.bytes_orig;
    rec.bytes_resp = flow.bytes_resp;
    rec.session_id = flow.session_id;
    closed_.push_back(rec);
  }

  if (flow.protocol == trace::Protocol::kFtpCtrl) {
    const std::uint64_t pair = host_pair_key(flow.orig_ip, flow.resp_ip);
    const auto sess = ftp_sessions_.find(pair);
    if (sess != ftp_sessions_.end() && sess->second == flow.conn_id)
      ftp_sessions_.erase(sess);
  }

  erase_bucket_of(slot);
  lru_unlink(slot);
  free_.push_back(slot);
  --live_;
}

void FlowTable::evict_idle() {
  while (lru_head_ != kNil) {
    if (clock_ - slots_[lru_head_].last <= config_.idle_timeout) break;
    close_flow(lru_head_);
  }
}

void FlowTable::flush() {
  while (lru_head_ != kNil) close_flow(lru_head_);
}

void FlowTable::take_closed(std::vector<trace::ConnRecord>& out) {
  out.insert(out.end(), closed_.begin(), closed_.end());
  closed_.clear();
}

void FlowTable::clear() {
  buckets_.assign(kInitialBuckets, Bucket{});
  slots_.clear();
  links_.clear();
  free_.clear();
  live_ = 0;
  lru_head_ = lru_tail_ = kNil;
  hosts_.clear();
  ftp_sessions_.clear();
  closed_.clear();
  next_conn_id_ = 1;
  clock_ = 0.0;
  any_ = false;
}

}  // namespace wan::ingest
