// Pins of the pcap ingest path (DESIGN.md §14): the mmap'd reader and
// its buffered fallback, the flat flow table and the direct columnar
// decode. Golden pins hold each fixture's raw packets and each
// synthetic flow-table stream's records; parity tests hold the buffered
// fallback to the mapping, the columns to the row source and a piped
// capture to the file.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/ingest/flow_table.hpp"
#include "src/ingest/ingest.hpp"
#include "src/ingest/mmap_source.hpp"
#include "src/stream/columnar.hpp"
#include "src/stream/pipeline.hpp"

using namespace wan;
using ingest::IngestError;
using ingest::ParseMode;
using ingest::RawPacket;

namespace {

std::string fixture(const std::string& name) {
  return std::string(WAN_TEST_DATA_DIR) + "/" + name;
}

bool same_raw(const std::vector<RawPacket>& a,
              const std::vector<RawPacket>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].src_ip != b[i].src_ip ||
        a[i].dst_ip != b[i].dst_ip || a[i].src_port != b[i].src_port ||
        a[i].dst_port != b[i].dst_port || a[i].tcp != b[i].tcp ||
        a[i].tcp_flags != b[i].tcp_flags ||
        a[i].payload_bytes != b[i].payload_bytes ||
        a[i].multicast != b[i].multicast)
      return false;
  }
  return true;
}

void expect_same_stats(const ingest::IngestStats& a,
                       const ingest::IngestStats& b) {
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.bad_headers, b.bad_headers);
  EXPECT_EQ(a.truncated_records, b.truncated_records);
  EXPECT_EQ(a.oversized_records, b.oversized_records);
  EXPECT_EQ(a.bad_lines, b.bad_lines);
  EXPECT_EQ(a.out_of_order, b.out_of_order);
  EXPECT_EQ(a.io_errors, b.io_errors);
  EXPECT_EQ(a.skipped_frames, b.skipped_frames);
  EXPECT_EQ(a.vlan_frames, b.vlan_frames);
  EXPECT_EQ(a.short_captures, b.short_captures);
  EXPECT_EQ(a.unknown_transports, b.unknown_transports);
  EXPECT_EQ(a.unknown_protocols, b.unknown_protocols);
  EXPECT_EQ(a.missing_fields, b.missing_fields);
}

template <typename Reader>
std::vector<RawPacket> drain(Reader& reader) {
  std::vector<RawPacket> pkts;
  RawPacket pkt;
  while (reader.next(pkt)) pkts.push_back(pkt);
  return pkts;
}

// FNV-1a over 8-byte words, each fed low byte first.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
};

// FNV-1a over every field of every packet, each widened to 8 bytes
// (time by its bit pattern).
std::uint64_t raw_digest(const std::vector<RawPacket>& pkts) {
  Fnv1a f;
  for (const RawPacket& p : pkts) {
    f.mix(std::bit_cast<std::uint64_t>(p.time));
    f.mix(p.src_ip);
    f.mix(p.dst_ip);
    f.mix(p.src_port);
    f.mix(p.dst_port);
    f.mix(p.tcp);
    f.mix(p.tcp_flags);
    f.mix(p.payload_bytes);
    f.mix(p.multicast);
  }
  return f.h;
}

// Every committed pcap fixture: endian/precision variants, mid-file
// damage, an unusable header.
const char* const kPcapFixtures[] = {"tiny_le.pcap", "tiny_be.pcap",
                                     "tiny_nsec.pcap", "tiny_ooo.pcap",
                                     "tiny_vlan.pcap", "trunc.pcap",
                                     "badmagic.pcap"};

// ------------------------------------------------ raw packet golden pins

// Where strict mode stops on a fixture: never, in the reader's
// constructor (the global header) or in next() (mid-file damage).
enum class Throws { kNever, kAtOpen, kAtNext };

// One MmapPcapReader drain of a fixture: where it throws, else its
// header fields, record count, record digest and ledger.
struct RawPacketPin {
  const char* file;
  ParseMode mode;
  Throws throws;
  bool header_ok = false;
  double tick = 0.0;
  std::uint32_t linktype = 0;
  std::size_t records = 0;
  std::uint64_t digest = 0;
  const char* ledger = "";
};

// Every kPcapFixtures entry in both parse modes. The values were taken
// from the ifstream reader this one replaced, which gave the same ones.
const RawPacketPin kRawPacketPins[] = {
    {"tiny_le.pcap", ParseMode::kStrict, Throws::kNever, true, 1e-6, 1, 13,
     0x97cef23857555070ull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_le.pcap", ParseMode::kLenient, Throws::kNever, true, 1e-6, 1, 13,
     0x97cef23857555070ull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_be.pcap", ParseMode::kStrict, Throws::kNever, true, 1e-6, 1, 13,
     0x97cef23857555070ull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_be.pcap", ParseMode::kLenient, Throws::kNever, true, 1e-6, 1, 13,
     0x97cef23857555070ull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_nsec.pcap", ParseMode::kStrict, Throws::kNever, true, 1e-9, 1, 13,
     0x97cef23857555070ull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_nsec.pcap", ParseMode::kLenient, Throws::kNever, true, 1e-9, 1,
     13, 0x97cef23857555070ull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_ooo.pcap", ParseMode::kStrict, Throws::kAtNext},
    {"tiny_ooo.pcap", ParseMode::kLenient, Throws::kNever, true, 1e-6, 1, 13,
     0xd19148a21303d7b8ull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  out-of-order timestamps: 1\n"
     "  skipped frames: 1"},
    {"tiny_vlan.pcap", ParseMode::kStrict, Throws::kNever, true, 1e-6, 1, 13,
     0x97cef23857555070ull,
     "ingested 13 record(s) from 1040 byte(s)\n"
     "  skipped frames: 1\n"
     "  vlan-tagged frames (decoded): 14"},
    {"tiny_vlan.pcap", ParseMode::kLenient, Throws::kNever, true, 1e-6, 1,
     13, 0x97cef23857555070ull,
     "ingested 13 record(s) from 1040 byte(s)\n"
     "  skipped frames: 1\n"
     "  vlan-tagged frames (decoded): 14"},
    {"trunc.pcap", ParseMode::kStrict, Throws::kAtNext},
    {"trunc.pcap", ParseMode::kLenient, Throws::kNever, true, 1e-6, 1, 12,
     0x760c3bd4afda5402ull,
     "ingested 12 record(s) from 926 byte(s)\n"
     "  truncated records: 1\n"
     "  skipped frames: 1"},
    {"badmagic.pcap", ParseMode::kStrict, Throws::kAtOpen},
    {"badmagic.pcap", ParseMode::kLenient, Throws::kNever, false, 1e-6, 1, 0,
     0xcbf29ce484222325ull,
     "ingested 0 record(s) from 24 byte(s)\n"
     "  bad headers: 1"},
};

TEST(RawPacketGoldenPins, ReaderMatchesPinnedOutput) {
  for (const RawPacketPin& pin : kRawPacketPins) {
    SCOPED_TRACE(std::string(pin.file) +
                 (pin.mode == ParseMode::kStrict ? " strict" : " lenient"));
    const std::string path = fixture(pin.file);
    if (pin.throws == Throws::kAtOpen) {
      EXPECT_THROW(ingest::MmapPcapReader(path, pin.mode), IngestError);
      continue;
    }
    ingest::MmapPcapReader reader(path, pin.mode);
    if (pin.throws == Throws::kAtNext) {
      EXPECT_THROW(drain(reader), IngestError);
      continue;
    }
    EXPECT_EQ(reader.header_ok(), pin.header_ok);
    EXPECT_EQ(reader.tick(), pin.tick);
    EXPECT_EQ(reader.linktype(), pin.linktype);
    const std::vector<RawPacket> pkts = drain(reader);
    EXPECT_EQ(pkts.size(), pin.records);
    EXPECT_EQ(raw_digest(pkts), pin.digest);
    EXPECT_EQ(reader.stats().to_string(), pin.ledger);
  }
}

// ------------------------------------------------------- mmap reader

TEST(MmapPcapReader, BufferedFallbackMatchesTheMapping) {
  // Force the sliding-buffer fallback onto a mappable file: same
  // records, same ledger — the reader cannot tell its sources apart.
  for (const char* name : kPcapFixtures) {
    SCOPED_TRACE(name);
    ingest::MmapPcapReader mapped(fixture(name), ParseMode::kLenient);
    ingest::MmapPcapReader buffered(
        std::make_unique<ingest::BufferedByteSource>(fixture(name)),
        fixture(name), ParseMode::kLenient);
    EXPECT_TRUE(same_raw(drain(mapped), drain(buffered)));
    expect_same_stats(mapped.stats(), buffered.stats());
  }
}

TEST(MmapPcapReader, NextBatchEqualsNextLoop) {
  const auto one_by_one = [] {
    ingest::MmapPcapReader r(fixture("tiny_le.pcap"), ParseMode::kStrict);
    return drain(r);
  }();
  for (std::size_t max : {std::size_t{1}, std::size_t{5}, std::size_t{100}}) {
    SCOPED_TRACE(max);
    ingest::MmapPcapReader r(fixture("tiny_le.pcap"), ParseMode::kStrict);
    std::vector<RawPacket> batched;
    while (r.next_batch(batched, batched.size() + max) > 0) {
    }
    EXPECT_TRUE(same_raw(one_by_one, batched));
    EXPECT_EQ(r.stats().records, batched.size());
  }
}

TEST(MmapPcapReader, ResetReproducesIdenticalPackets) {
  ingest::MmapPcapReader r(fixture("tiny_le.pcap"), ParseMode::kStrict);
  const auto first = drain(r);
  const auto bytes_first = r.stats().bytes;
  r.reset();
  const auto second = drain(r);
  EXPECT_TRUE(same_raw(first, second));
  EXPECT_EQ(r.stats().bytes, bytes_first);

  // The buffered fallback rewinds through lseek.
  ingest::MmapPcapReader b(
      std::make_unique<ingest::BufferedByteSource>(fixture("tiny_le.pcap")),
      fixture("tiny_le.pcap"), ParseMode::kStrict);
  const auto bfirst = drain(b);
  b.reset();
  EXPECT_TRUE(same_raw(bfirst, drain(b)));
}

// ------------------------------------------------ flow table golden pins

RawPacket mk(double t, std::uint32_t src, std::uint32_t dst,
             std::uint16_t sport, std::uint16_t dport, std::uint8_t flags,
             std::uint32_t payload, bool tcp = true) {
  RawPacket p;
  p.time = t;
  p.src_ip = src;
  p.dst_ip = dst;
  p.src_port = sport;
  p.dst_port = dport;
  p.tcp = tcp;
  p.tcp_flags = flags;
  p.payload_bytes = payload;
  return p;
}

struct TableRun {
  std::vector<trace::PacketRecord> pkts;
  std::vector<trace::ConnRecord> conns;
  std::size_t hosts = 0;
  std::uint32_t conn_ids = 0;
};

TableRun run_table(const std::vector<RawPacket>& stream,
                   ingest::FlowTableConfig cfg) {
  ingest::FlowTable table(cfg);
  TableRun out;
  for (const RawPacket& p : stream) {
    out.pkts.push_back(table.add(p));
    table.take_closed(out.conns);  // interleaved, like read_conn_trace
  }
  table.flush();
  table.take_closed(out.conns);
  out.hosts = table.host_count();
  out.conn_ids = table.connections_seen();
  return out;
}

std::uint64_t table_digest(const TableRun& run) {
  Fnv1a f;
  for (const trace::PacketRecord& r : run.pkts) {
    f.mix(std::bit_cast<std::uint64_t>(r.time));
    f.mix(static_cast<std::uint64_t>(r.protocol));
    f.mix(r.conn_id);
    f.mix(r.from_originator);
    f.mix(r.payload_bytes);
  }
  for (const trace::ConnRecord& r : run.conns) {
    f.mix(std::bit_cast<std::uint64_t>(r.start));
    f.mix(std::bit_cast<std::uint64_t>(r.duration));
    f.mix(static_cast<std::uint64_t>(r.protocol));
    f.mix(r.src_host);
    f.mix(r.dst_host);
    f.mix(r.bytes_orig);
    f.mix(r.bytes_resp);
    f.mix(r.session_id);
  }
  return f.h;
}

using ingest::kTcpAck;
using ingest::kTcpFin;
using ingest::kTcpRst;
using ingest::kTcpSyn;

std::vector<RawPacket> close_and_reincarnation_stream() {
  std::vector<RawPacket> s;
  // FIN-pair close, then the same 4-tuple reincarnates as a new conn.
  s.push_back(mk(1.0, 1, 2, 1025, 23, kTcpSyn, 0));
  s.push_back(mk(1.1, 2, 1, 23, 1025, kTcpSyn | kTcpAck, 0));
  s.push_back(mk(1.2, 1, 2, 1025, 23, kTcpAck, 40));
  s.push_back(mk(1.3, 1, 2, 1025, 23, kTcpFin | kTcpAck, 0));
  s.push_back(mk(1.4, 2, 1, 23, 1025, kTcpFin | kTcpAck, 0));
  s.push_back(mk(2.0, 1, 2, 1025, 23, kTcpSyn, 0));  // reincarnation
  s.push_back(mk(2.1, 1, 2, 1025, 23, kTcpAck, 10));
  // RST close from the responder side, then reuse again.
  s.push_back(mk(3.0, 3, 4, 2000, 80, kTcpSyn, 0));
  s.push_back(mk(3.1, 4, 3, 80, 2000, kTcpRst, 0));
  s.push_back(mk(3.2, 3, 4, 2000, 80, kTcpSyn, 0));
  // First packet seen is the responder's SYN+ACK: reversed originator.
  s.push_back(mk(4.0, 6, 5, 119, 3000, kTcpSyn | kTcpAck, 0));
  s.push_back(mk(4.1, 5, 6, 3000, 119, kTcpAck, 99));
  return s;
}

// Run at a 2 s idle timeout.
std::vector<RawPacket> idle_timeout_stream() {
  std::vector<RawPacket> s;
  // Three flows opened in order; the middle one stays busy, so the
  // clock evicts 1 and 3 in LRU (not open) order, then flow 1's tuple
  // reincarnates with a fresh conn id.
  s.push_back(mk(0.0, 1, 2, 1000, 23, kTcpSyn, 0));
  s.push_back(mk(0.1, 3, 4, 1001, 79, kTcpSyn, 0));
  s.push_back(mk(0.2, 5, 6, 1002, 513, kTcpSyn, 0));
  s.push_back(mk(1.0, 3, 4, 1001, 79, kTcpAck, 10));
  s.push_back(mk(2.5, 3, 4, 1001, 79, kTcpAck, 10));
  s.push_back(mk(4.0, 3, 4, 1001, 79, kTcpAck, 10));  // evicts 1 and 3
  s.push_back(mk(4.1, 1, 2, 1000, 23, kTcpSyn, 0));   // reincarnation
  // UDP flows only ever close by eviction or flush.
  s.push_back(mk(4.2, 7, 8, 4000, 53, 0, 30, false));
  s.push_back(mk(4.3, 8, 7, 53, 4000, 0, 90, false));
  return s;
}

std::vector<RawPacket> ftp_session_stream() {
  std::vector<RawPacket> s;
  // FTP control opens, stamps an active-mode data flow, closes; a later
  // data flow between the same hosts gets no session.
  s.push_back(mk(1.0, 1, 2, 1500, 21, kTcpSyn, 0));
  s.push_back(mk(1.1, 2, 1, 21, 1500, kTcpSyn | kTcpAck, 0));
  s.push_back(mk(2.0, 2, 1, 20, 1501, kTcpSyn, 0));  // stamped data flow
  s.push_back(mk(2.1, 2, 1, 20, 1501, kTcpAck, 512));
  s.push_back(mk(3.0, 1, 2, 1500, 21, kTcpFin, 0));
  s.push_back(mk(3.1, 2, 1, 21, 1500, kTcpFin | kTcpAck, 0));
  s.push_back(mk(4.0, 2, 1, 20, 1502, kTcpSyn, 0));  // orphan data flow
  return s;
}

// Run at a 50 s idle timeout.
std::vector<RawPacket> rehash_growth_stream() {
  // Far past the initial 1024-bucket capacity, with closes sprinkled in
  // so freed slots are reused while the bucket array regrows, then a
  // timeout sweep over everything left.
  std::vector<RawPacket> s;
  constexpr int kFlows = 3000;
  for (int f = 0; f < kFlows; ++f) {
    const auto src = static_cast<std::uint32_t>(10 + f % 97);
    const auto dst = static_cast<std::uint32_t>(1000 + f % 53);
    const auto sport = static_cast<std::uint16_t>(1024 + f);
    const auto dport = static_cast<std::uint16_t>(f % 3 == 0 ? 23 : 79);
    const double t = 0.01 * f;
    s.push_back(mk(t, src, dst, sport, dport, kTcpSyn, 0));
    s.push_back(mk(t + 0.001, dst, src, dport, sport,
                   kTcpSyn | kTcpAck, 0));
    s.push_back(mk(t + 0.002, src, dst, sport, dport, kTcpAck, 100));
    if (f % 5 == 0) {  // close a fifth of them early, both FINs
      s.push_back(mk(t + 0.003, src, dst, sport, dport, kTcpFin, 0));
      s.push_back(mk(t + 0.004, dst, src, dport, sport, kTcpFin, 0));
    }
  }
  s.push_back(mk(200.0, 1, 2, 9999, 23, kTcpSyn, 0));  // sweeps the rest
  return s;
}

ingest::FlowTableConfig idle_after(double seconds) {
  ingest::FlowTableConfig cfg;
  cfg.idle_timeout = seconds;
  return cfg;
}

// One FlowTable run over a synthetic stream, as run_table reports it:
// packets emitted, connections closed, hosts numbered, conn ids issued,
// and table_digest over the emitted and closed records.
struct TablePin {
  const char* stream_name;
  std::vector<RawPacket> (*stream)();
  double idle_timeout;
  std::size_t packets;
  std::size_t conns;
  std::size_t hosts;
  std::uint32_t conn_ids;
  std::uint64_t digest;
};

// The values were taken from the node-based table this one replaced,
// which gave the same ones.
const TablePin kTablePins[] = {
    {"close and reincarnation", close_and_reincarnation_stream, 3600.0, 12,
     5, 6, 5, 0xb0ceeed6315544eaull},
    {"idle timeout eviction", idle_timeout_stream, 2.0, 9, 5, 8, 5,
     0xa2db02e171bf606aull},
    {"FTP session stamping", ftp_session_stream, 3600.0, 7, 3, 2, 3,
     0x744b1a3975588063ull},
    {"rehash growth", rehash_growth_stream, 50.0, 10201, 3001, 152, 3001,
     0x28b798a19a3a90c2ull},
};

TEST(FlowTableGoldenPins, EveryStreamMatchesPinnedOutput) {
  for (const TablePin& pin : kTablePins) {
    SCOPED_TRACE(pin.stream_name);
    const TableRun run =
        run_table(pin.stream(), idle_after(pin.idle_timeout));
    EXPECT_EQ(run.pkts.size(), pin.packets);
    EXPECT_EQ(run.conns.size(), pin.conns);
    EXPECT_EQ(run.hosts, pin.hosts);
    EXPECT_EQ(run.conn_ids, pin.conn_ids);
    EXPECT_EQ(table_digest(run), pin.digest);
  }
}

// ---------------------------------------------------- columnar == row

TEST(PcapColumnSource, ColumnsMatchRowSourceRows) {
  ingest::PcapColumnSource cols(fixture("tiny_le.pcap"), ParseMode::kStrict);
  ingest::MmapPcapPacketSource rows(fixture("tiny_le.pcap"),
                                    ParseMode::kStrict);
  EXPECT_EQ(cols.info().name, rows.info().name);
  EXPECT_EQ(cols.info().t_begin, rows.info().t_begin);
  EXPECT_EQ(cols.info().t_end, rows.info().t_end);

  std::vector<trace::PacketRecord> from_cols;
  stream::PacketColumns chunk;
  while (cols.next(chunk)) chunk.to_rows(from_cols);
  std::vector<trace::PacketRecord> from_rows, chunk_rows;
  while (rows.next(chunk_rows))
    from_rows.insert(from_rows.end(), chunk_rows.begin(), chunk_rows.end());

  ASSERT_EQ(from_cols.size(), from_rows.size());
  for (std::size_t i = 0; i < from_cols.size(); ++i) {
    EXPECT_EQ(from_cols[i].time, from_rows[i].time);
    EXPECT_EQ(from_cols[i].protocol, from_rows[i].protocol);
    EXPECT_EQ(from_cols[i].conn_id, from_rows[i].conn_id);
    EXPECT_EQ(from_cols[i].from_originator, from_rows[i].from_originator);
    EXPECT_EQ(from_cols[i].payload_bytes, from_rows[i].payload_bytes);
  }
  expect_same_stats(cols.stats(), rows.stats());
}

TEST(PcapColumnSource, FactoryBridgesAndNativePathAgree) {
  // The factory's native pcap decode against the serial mmap row source
  // bridged through ColumnsFromIngest.
  const std::string path = fixture("tiny_le.pcap");
  const auto native =
      ingest::open_packet_column_source(path, ingest::IngestFormat::kPcap, {});
  ASSERT_NE(dynamic_cast<const ingest::PcapColumnSource*>(native.get()),
            nullptr);
  const auto want = stream::collect_columns(*native);
  ASSERT_GT(want.size(), 0u);

  ingest::ColumnsFromIngest bridged(
      std::make_unique<ingest::MmapPcapPacketSource>(path,
                                                     ParseMode::kStrict));
  EXPECT_EQ(bridged.info().name, native->info().name);
  EXPECT_EQ(bridged.info().t_begin, native->info().t_begin);
  EXPECT_EQ(bridged.info().t_end, native->info().t_end);
  const auto got = stream::collect_columns(bridged);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.protocol, want.protocol);
  EXPECT_EQ(got.conn_id, want.conn_id);
  EXPECT_EQ(got.from_originator, want.from_originator);
  EXPECT_EQ(got.payload_bytes, want.payload_bytes);
  expect_same_stats(bridged.stats(), native->stats());
}

// ------------------------------------------------- stdin "-" spooling

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

// A pipe carrying a fixture, write end already closed so the spooler
// sees EOF without a writer thread (the fixtures are far below pipe
// capacity).
int fixture_pipe(const std::string& name) {
  const auto bytes = slurp(fixture(name));
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  EXPECT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  return fds[0];
}

TEST(SpooledByteSource, PipeMatchesFileAndRewinds) {
  const int rd = fixture_pipe("tiny_le.pcap");
  ingest::MmapPcapReader piped(ingest::spooled_byte_source(rd, "<pipe>"),
                               "<pipe>", ParseMode::kStrict);
  ::close(rd);
  ingest::MmapPcapReader file(fixture("tiny_le.pcap"), ParseMode::kStrict);
  const auto from_file = drain(file);
  EXPECT_TRUE(same_raw(from_file, drain(piped)));
  expect_same_stats(file.stats(), piped.stats());
  // The spool is an anonymous regular file: reset (the prescan rewind)
  // works even though the original pipe could never seek.
  piped.reset();
  EXPECT_TRUE(same_raw(from_file, drain(piped)));
}

TEST(StdinInput, DashStreamsAPipedPcapThroughTheColumnFactory) {
  const int rd = fixture_pipe("tiny_le.pcap");
  const int saved_stdin = ::dup(0);
  ASSERT_GE(saved_stdin, 0);
  ASSERT_EQ(::dup2(rd, 0), 0);
  ::close(rd);
  std::unique_ptr<ingest::IngestColumnSource> piped;
  try {
    piped = ingest::open_packet_column_source(
        "-", ingest::IngestFormat::kPcap, {});
  } catch (...) {
    ::dup2(saved_stdin, 0);
    ::close(saved_stdin);
    throw;
  }
  ::dup2(saved_stdin, 0);
  ::close(saved_stdin);

  const auto file = ingest::open_packet_column_source(
      fixture("tiny_le.pcap"), ingest::IngestFormat::kPcap, {});
  EXPECT_EQ(piped->info().t_begin, file->info().t_begin);
  EXPECT_EQ(piped->info().t_end, file->info().t_end);
  const auto ca = stream::collect_columns(*piped);
  const auto cb = stream::collect_columns(*file);
  ASSERT_EQ(ca.size(), cb.size());
  EXPECT_EQ(ca.time, cb.time);
  EXPECT_EQ(ca.protocol, cb.protocol);
  EXPECT_EQ(ca.conn_id, cb.conn_id);
  EXPECT_EQ(ca.from_originator, cb.from_originator);
  EXPECT_EQ(ca.payload_bytes, cb.payload_bytes);
  expect_same_stats(piped->stats(), file->stats());
}

// The vt CSV without its header line, which names the input.
std::string vt_rows(const stream::PipelineResult& r) {
  const std::string csv = stream::vt_csv(r);
  return csv.substr(csv.find('\n') + 1);
}

// The filtered analysis decodes its capture once, with no prescan and no
// rewind, so a pipe opened by name (the buffered source, which cannot
// rewind) gives the file's result.
TEST(PcapColumnSource, FilteredAnalysisReadsAPipedCaptureOnce) {
  stream::PipelineOptions opt;
  opt.bin = 0.1;
  opt.orig_data_only = true;
  opt.remove_outliers = true;
  ingest::PcapColumnSource file(fixture("tiny_le.pcap"), ParseMode::kStrict);
  const stream::PipelineResult want = stream::analyze_columns(file, opt);
  ASSERT_GT(want.packets, 0u);

  const int rd = fixture_pipe("tiny_le.pcap");
  const std::string name = "/dev/fd/" + std::to_string(rd);
  stream::PipelineResult got;
  try {
    ingest::PcapColumnSource piped(name, ParseMode::kStrict);
    got = stream::analyze_columns(piped, opt);
  } catch (...) {
    ::close(rd);
    throw;
  }
  ::close(rd);
  EXPECT_EQ(got.info.name, "pcap:" + name + "/orig-data/no-outliers");
  EXPECT_EQ(got.info.t_begin, want.info.t_begin);
  EXPECT_EQ(got.info.t_end, want.info.t_end);
  EXPECT_EQ(got.packets, want.packets);
  EXPECT_EQ(got.counts, want.counts);
  EXPECT_EQ(vt_rows(got), vt_rows(want));
}

TEST(StdinInput, RejectsConfigurationsThatNeedANamedFile) {
  ingest::IngestOptions opt;
  EXPECT_THROW(
      ingest::open_packet_source("-", ingest::IngestFormat::kLblPkt, opt),
      std::invalid_argument);
  EXPECT_THROW(
      ingest::reconstruct_conn_trace("-", ingest::IngestFormat::kLblConn, opt),
      std::invalid_argument);
}

TEST(PcapColumnSource, ResetReproducesIdenticalColumns) {
  ingest::PcapColumnSource src(fixture("tiny_le.pcap"), ParseMode::kStrict);
  const auto first = stream::collect_columns(src);
  src.reset();
  const auto second = stream::collect_columns(src);
  EXPECT_EQ(first.time, second.time);
  EXPECT_EQ(first.conn_id, second.conn_id);
  EXPECT_EQ(first.payload_bytes, second.payload_bytes);
}

}  // namespace
