#include "src/synth/stream_synth.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "src/stream/shard.hpp"

namespace wan::synth {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Shard membership of a conn id — stream::shard_of, with count 1 short-
// circuited so the unsharded path never touches the hash.
bool owns_conn(const SynthShard& shard, std::uint32_t conn_id) {
  return shard.count <= 1 ||
         stream::shard_of(conn_id, shard.count) == shard.index;
}

}  // namespace

// One traffic source as a lazily-activated, time-ordered record buffer.
// Subclasses activate one "unit" (a connection, a DNS exchange, an MBone
// session) per activate_next() call, pushing its records; frontier() is
// the start time of the next unactivated unit. Every record of a unit
// has time >= the unit's start and units activate in start order, so all
// buffered records below frontier() are final.
class StreamingPacketSynthesizer::Generator {
 public:
  Generator(double t0, double t1) : t0_(t0), t1_(t1) {}
  virtual ~Generator() = default;

  /// Time of the next emittable record, activating units as needed;
  /// kInf when exhausted.
  double next_time() {
    while ((heap_.empty() || frontier() <= heap_.top().time) &&
           activate_next()) {
    }
    return heap_.empty() ? kInf : heap_.top().time;
  }

  trace::PacketRecord pop() {
    trace::PacketRecord r = heap_.top().rec;
    heap_.pop();
    return r;
  }

 protected:
  /// Start time of the next unactivated unit; kInf when none remain.
  virtual double frontier() const = 0;
  /// Generates the next unit's records (pushing them); false when none
  /// remain.
  virtual bool activate_next() = 0;

  /// Clips to the capture window, like the batch path's final pass.
  void push(const trace::PacketRecord& r) {
    if (r.time < t0_ || r.time >= t1_) return;
    heap_.push({r.time, next_seq_++, r});
  }
  void push_all(const trace::PacketTrace& t) {
    for (const trace::PacketRecord& r : t.records()) push(r);
  }

  double t0_;
  double t1_;

 private:
  struct Item {
    double time;
    std::uint64_t seq;  ///< push order == generation order, for stable ties
    trace::PacketRecord rec;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };
  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

namespace {

// FULL-TEL, both directions. The eager phase burns through the same
// draws generate_connections makes, checkpointing the RNG before each
// connection and skipping its packet times through the Tcplib walk, so
// activation can replay exactly that connection's size and packet
// times; the responder stream (which the batch path consumes *after*
// all originator draws) is then walked lazily, one connection per
// activation, in the same order.
class TelnetGen final : public StreamingPacketSynthesizer::Generator {
 public:
  TelnetGen(const TelnetConfig& cfg, rng::Rng r, double t0, double t1,
            std::uint32_t first_id, SynthShard shard)
      : Generator(t0, t1),
        src_(cfg),
        first_id_(first_id),
        responder_rng_(0),
        shard_(shard) {
    starts_ = poisson_arrivals_hourly(r, cfg.profile, cfg.conns_per_day, t0,
                                      t1);
    checkpoints_.reserve(starts_.size());
    for (double s : starts_) {
      checkpoints_.push_back(r);
      const std::size_t n = src_.sample_size_packets(r);
      (void)src_.tcplib_last_packet_time(r, s, n);
    }
    responder_rng_ = r;
  }

  std::size_t connections() const { return starts_.size(); }

 protected:
  double frontier() const override {
    return idx_ < starts_.size() ? starts_[idx_] : kInf;
  }

  bool activate_next() override {
    if (idx_ >= starts_.size()) return false;
    rng::Rng r = checkpoints_[idx_];
    TelnetConnection c;
    c.start = starts_[idx_];
    const std::size_t n = src_.sample_size_packets(r);
    c.packet_times =
        src_.generate_packet_times(r, c.start, n, InterarrivalScheme::kTcplib);

    const auto id = first_id_ + static_cast<std::uint32_t>(idx_);
    trace::PacketTrace tmp("", t0_, t1_);
    src_.append_originator_packets(c, t0_, t1_, id, tmp);
    // The responder stream is one sequential walk shared by every
    // connection, so a sharded generator still generates every
    // connection's responder side — it just discards the records of
    // connections another shard owns, keeping the stream position (and
    // hence every owned connection's draws) exactly the serial path's.
    src_.append_responder_packets(responder_rng_, c, t0_, t1_, id,
                                  ResponderConfig{}, tmp);
    if (owns_conn(shard_, id)) push_all(tmp);
    ++idx_;
    return true;
  }

 private:
  TelnetSource src_;
  std::uint32_t first_id_;
  std::vector<double> starts_;
  std::vector<rng::Rng> checkpoints_;
  rng::Rng responder_rng_;
  SynthShard shard_;
  std::size_t idx_ = 0;
};

// The packetized bulk protocols. Conn ids were assigned in the batch
// concatenation order before sorting by start; each activation re-seeds
// bulk_conn_rng(stream_key, id), so activation order doesn't matter to
// the packets a connection gets.
class BulkGen final : public StreamingPacketSynthesizer::Generator {
 public:
  struct Entry {
    trace::ConnRecord conn;
    std::uint32_t id;
  };

  BulkGen(std::vector<Entry> entries, std::uint64_t stream_key,
          const PacketFillConfig& fill, double t0, double t1)
      : Generator(t0, t1),
        entries_(std::move(entries)),
        stream_key_(stream_key),
        fill_(fill) {
    std::stable_sort(entries_.begin(), entries_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.conn.start < b.conn.start;
                     });
  }

 protected:
  double frontier() const override {
    return idx_ < entries_.size() ? entries_[idx_].conn.start : kInf;
  }

  bool activate_next() override {
    if (idx_ >= entries_.size()) return false;
    const Entry& e = entries_[idx_];
    rng::Rng r = bulk_conn_rng(stream_key_, e.id);
    trace::PacketTrace tmp("", t0_, t1_);
    fill_conn_packets(r, e.conn, fill_, e.id, tmp);
    push_all(tmp);
    ++idx_;
    return true;
  }

 private:
  std::vector<Entry> entries_;
  std::uint64_t stream_key_;
  PacketFillConfig fill_;
  std::size_t idx_ = 0;
};

// Poisson DNS exchanges, walked lazily in arrival order off the "dns"
// child stream (positioned just past the arrival draws, exactly where
// fill_dns_packets starts consuming per-exchange randomness).
class DnsGen final : public StreamingPacketSynthesizer::Generator {
 public:
  DnsGen(const DnsConfig& cfg, rng::Rng r, double t0, double t1,
         std::uint32_t first_id, SynthShard shard)
      : Generator(t0, t1), cfg_(cfg), first_id_(first_id), rng_(0),
        shard_(shard) {
    arrivals_ = poisson_arrivals(r, cfg.queries_per_hour / 3600.0, t0, t1);
    rng_ = r;
  }

  std::size_t connections() const { return arrivals_.size(); }

 protected:
  double frontier() const override {
    return idx_ < arrivals_.size() ? arrivals_[idx_] : kInf;
  }

  bool activate_next() override {
    if (idx_ >= arrivals_.size()) return false;
    const auto id = first_id_ + static_cast<std::uint32_t>(idx_);
    trace::PacketTrace tmp("", t0_, t1_);
    // rng_ is one sequential walk: generate every exchange, keep only
    // the owned ones (see TelnetGen's responder note).
    emit_dns_exchange(rng_, cfg_, arrivals_[idx_], t1_, id, tmp);
    if (owns_conn(shard_, id)) push_all(tmp);
    ++idx_;
    return true;
  }

 private:
  DnsConfig cfg_;
  std::uint32_t first_id_;
  rng::Rng rng_;
  std::vector<double> arrivals_;
  SynthShard shard_;
  std::size_t idx_ = 0;
};

// MBone audio sessions, same lazy-walk scheme as DnsGen.
class MboneGen final : public StreamingPacketSynthesizer::Generator {
 public:
  MboneGen(const MboneConfig& cfg, rng::Rng r, double t0, double t1,
           std::uint32_t first_id, SynthShard shard)
      : Generator(t0, t1), cfg_(cfg), first_id_(first_id), rng_(0),
        shard_(shard) {
    arrivals_ = poisson_arrivals(r, cfg.sessions_per_hour / 3600.0, t0, t1);
    rng_ = r;
  }

  std::size_t connections() const { return arrivals_.size(); }

 protected:
  double frontier() const override {
    return idx_ < arrivals_.size() ? arrivals_[idx_] : kInf;
  }

  bool activate_next() override {
    if (idx_ >= arrivals_.size()) return false;
    const auto id = first_id_ + static_cast<std::uint32_t>(idx_);
    trace::PacketTrace tmp("", t0_, t1_);
    emit_mbone_session(rng_, cfg_, arrivals_[idx_], t1_, id, tmp);
    if (owns_conn(shard_, id)) push_all(tmp);
    ++idx_;
    return true;
  }

 private:
  MboneConfig cfg_;
  std::uint32_t first_id_;
  rng::Rng rng_;
  std::vector<double> arrivals_;
  SynthShard shard_;
  std::size_t idx_ = 0;
};

}  // namespace

StreamingPacketSynthesizer::StreamingPacketSynthesizer(
    PacketDatasetConfig config, std::size_t chunk_size, SynthShard shard)
    : config_(std::move(config)), chunk_size_(chunk_size), shard_(shard) {
  if (shard_.count == 0 || shard_.index >= shard_.count)
    throw std::invalid_argument(
        "StreamingPacketSynthesizer: shard index must be < count");
  build();
}

StreamingPacketSynthesizer::~StreamingPacketSynthesizer() = default;

void StreamingPacketSynthesizer::build() {
  gens_.clear();
  const double t0 = config_.start_hour * 3600.0;
  const double t1 = t0 + config_.hours * 3600.0;
  info_ = {config_.name, t0, t1};

  rng::Rng root(config_.seed);
  const HostModel hosts(config_.n_local_hosts, config_.n_remote_hosts);

  // Child-stream derivation order must match synthesize_packet_trace —
  // child() advances the root, so this order IS the randomness.
  rng::Rng r_telnet = root.child("telnet");
  rng::Rng r_ftp = root.child("ftp");
  rng::Rng r_smtp = root.child("smtp");
  rng::Rng r_nntp = root.child("nntp");
  rng::Rng r_www = root.child("www");
  rng::Rng r_fill = root.child("fill");
  rng::Rng r_dns = config_.tcp_only ? rng::Rng(0) : root.child("dns");
  rng::Rng r_mbone = config_.tcp_only ? rng::Rng(0) : root.child("mbone");

  TelnetConfig tc = config_.telnet;
  tc.conns_per_day *= config_.volume_scale;
  auto telnet = std::make_unique<TelnetGen>(tc, r_telnet, t0, t1,
                                            /*first_id=*/1, shard_);
  auto next_conn_id =
      static_cast<std::uint32_t>(1 + telnet->connections());

  // Bulk connection skeletons in the batch concatenation order
  // (ftp, smtp, nntp, www) — that order fixes the conn-id assignment.
  trace::ConnTrace bulk("bulk", t0, t1);
  {
    FtpConfig fc = config_.ftp;
    fc.sessions_per_day *= config_.volume_scale;
    std::uint64_t next_session = 1;
    FtpSource(fc).generate(r_ftp, t0, t1, hosts, &next_session, bulk);
    SmtpConfig sc = config_.smtp;
    sc.conns_per_day *= config_.volume_scale;
    SmtpSource(sc).generate(r_smtp, t0, t1, hosts, bulk);
    NntpConfig nc = config_.nntp;
    nc.conns_per_day *= config_.volume_scale;
    NntpSource(nc).generate(r_nntp, t0, t1, hosts, bulk);
    WwwConfig wc = config_.www;
    wc.sessions_per_day *= config_.volume_scale;
    WwwSource(wc).generate(r_www, t0, t1, hosts, bulk);
  }
  const std::uint64_t stream_key = r_fill.next_u64();
  std::vector<BulkGen::Entry> entries;
  for (const trace::ConnRecord& c : bulk.records()) {
    if (!is_bulk_protocol(c.protocol)) continue;
    // Conn ids advance over the FULL entry set in every shard (the
    // numbering is global); a sharded generator then keeps only its own
    // entries. Each bulk connection re-seeds bulk_conn_rng(stream_key,
    // id), so dropped entries consume no randomness — this is where
    // sharded synthesis actually divides the packet-generation work.
    const std::uint32_t id = next_conn_id++;
    if (!owns_conn(shard_, id)) continue;
    entries.push_back({c, id});
  }
  auto bulk_gen = std::make_unique<BulkGen>(std::move(entries), stream_key,
                                            config_.fill, t0, t1);

  gens_.push_back(std::move(telnet));
  gens_.push_back(std::move(bulk_gen));

  if (!config_.tcp_only) {
    DnsConfig dc = config_.dns;
    dc.queries_per_hour *= config_.volume_scale;
    auto dns =
        std::make_unique<DnsGen>(dc, r_dns, t0, t1, next_conn_id, shard_);
    next_conn_id += static_cast<std::uint32_t>(dns->connections());
    MboneConfig mc = config_.mbone;
    mc.sessions_per_hour *= config_.volume_scale;
    auto mbone = std::make_unique<MboneGen>(mc, r_mbone, t0, t1,
                                            next_conn_id, shard_);
    gens_.push_back(std::move(dns));
    gens_.push_back(std::move(mbone));
  }
}

bool StreamingPacketSynthesizer::next(
    std::vector<trace::PacketRecord>& chunk) {
  chunk.clear();
  while (chunk.size() < chunk_size_) {
    Generator* best = nullptr;
    double best_time = kInf;
    for (const auto& g : gens_) {
      const double t = g->next_time();
      // Strict < keeps the earliest-ranked generator on ties — the
      // batch concatenation order.
      if (t < best_time) {
        best_time = t;
        best = g.get();
      }
    }
    if (!best) break;
    chunk.push_back(best->pop());
  }
  return !chunk.empty();
}

void StreamingPacketSynthesizer::reset() { build(); }

}  // namespace wan::synth
