// Ingestion robustness: the hand-crafted fixtures under tests/data/
// (generated by make_fixtures.py, committed) drive the pcap and ITA
// readers through endian/precision variants, corruption in both parse
// modes, flow reconstruction (with golden pins of every connection
// trace and every packet column stream the fixtures yield), and parity
// with the streaming pipeline.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/ingest/classify.hpp"
#include "src/ingest/flow_table.hpp"
#include "src/ingest/ingest.hpp"
#include "src/ingest/sources.hpp"
#include "src/stream/binary_chunk.hpp"
#include "src/stream/columnar.hpp"
#include "src/stream/pipeline.hpp"
#include "src/trace/binary_io.hpp"

using namespace wan;
using ingest::IngestError;
using ingest::ParseMode;
using trace::Protocol;

namespace {

std::string fixture(const std::string& name) {
  return std::string(WAN_TEST_DATA_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

// The 13 analysis packets of tiny_*.pcap (see make_fixtures.py) form a
// TELNET connection, an FTP control connection, an active-mode FTPDATA
// connection and a UDP DNS query, plus one ARP frame the reader skips.
constexpr std::size_t kTinyPackets = 13;

// A packet source drained into an in-memory trace: the range info()
// gives (asked first, so a capture prescans), then every row, in order.
trace::PacketTrace collect_trace(stream::PacketColumnSource& src) {
  const stream::StreamInfo& info = src.info();
  trace::PacketTrace out(info.name, info.t_begin, info.t_end);
  std::vector<trace::PacketRecord> rows;
  stream::PacketColumns chunk;
  while (src.next(chunk)) {
    rows.clear();
    chunk.to_rows(rows);
    for (const trace::PacketRecord& r : rows) out.add(r);
  }
  return out;
}

bool same_records(const std::vector<trace::PacketRecord>& a,
                  const std::vector<trace::PacketRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].protocol != b[i].protocol ||
        a[i].conn_id != b[i].conn_id ||
        a[i].from_originator != b[i].from_originator ||
        a[i].payload_bytes != b[i].payload_bytes)
      return false;
  }
  return true;
}

// --------------------------------------------------------- pcap reading

TEST(MmapPcapReader, DecodesTheFixtureConversation) {
  ingest::MmapPcapReader reader(fixture("tiny_le.pcap"), ParseMode::kStrict);
  ASSERT_TRUE(reader.header_ok());
  EXPECT_EQ(reader.tick(), 1e-6);
  EXPECT_EQ(reader.linktype(), 1u);

  std::vector<ingest::RawPacket> pkts;
  ingest::RawPacket pkt;
  while (reader.next(pkt)) pkts.push_back(pkt);
  ASSERT_EQ(pkts.size(), kTinyPackets);

  EXPECT_DOUBLE_EQ(pkts[0].time, 100.0);
  EXPECT_EQ(pkts[0].src_ip, 0x0A000001u);
  EXPECT_EQ(pkts[0].dst_ip, 0x0A000002u);
  EXPECT_EQ(pkts[0].src_port, 1025);
  EXPECT_EQ(pkts[0].dst_port, 23);
  EXPECT_EQ(pkts[0].tcp_flags, ingest::kTcpSyn);
  EXPECT_EQ(pkts[0].payload_bytes, 0u);
  EXPECT_TRUE(pkts[0].tcp);

  EXPECT_EQ(pkts[2].payload_bytes, 100u);  // from IP total_len, not capture
  EXPECT_FALSE(pkts[11].tcp);              // the DNS query
  EXPECT_EQ(pkts[11].dst_port, 53);
  EXPECT_EQ(pkts[11].payload_bytes, 30u);

  EXPECT_EQ(reader.stats().records, kTinyPackets);
  EXPECT_EQ(reader.stats().skipped_frames, 1u);  // the ARP frame
  EXPECT_EQ(reader.stats().structural_errors(), 0u);
}

TEST(MmapPcapReader, ByteSwappedAndNsecVariantsDecodeIdentically) {
  ingest::PcapColumnSource le(fixture("tiny_le.pcap"), ParseMode::kStrict);
  ingest::PcapColumnSource be(fixture("tiny_be.pcap"), ParseMode::kStrict);
  ingest::PcapColumnSource ns(fixture("tiny_nsec.pcap"), ParseMode::kStrict);
  const auto tr_le = collect_trace(le);
  const auto tr_be = collect_trace(be);
  const auto tr_ns = collect_trace(ns);

  ASSERT_EQ(tr_le.size(), kTinyPackets);
  EXPECT_TRUE(same_records(tr_le.records(), tr_be.records()));
  // The fixture's usec fractions convert to exact nsec values, so even
  // the doubles agree bit for bit; only the end-of-trace tick differs.
  EXPECT_TRUE(same_records(tr_le.records(), tr_ns.records()));
  EXPECT_EQ(tr_le.t_begin(), tr_be.t_begin());
  EXPECT_EQ(tr_le.t_end(), tr_be.t_end());
  EXPECT_DOUBLE_EQ(tr_le.t_begin(), 100.0);
  EXPECT_DOUBLE_EQ(tr_le.t_end(), 105.0 + 1e-6);
}

TEST(MmapPcapReader, VlanTaggedFramesDecodeToTheSameRecords) {
  // tiny_vlan.pcap is tiny_le.pcap with an 802.1Q tag spliced into
  // every frame (one frame double-tagged 802.1ad QinQ): unwrapping the
  // tags must reproduce the untagged capture's records exactly, and the
  // tagged ARP frame must still be skipped after its tag is unwrapped.
  ingest::PcapColumnSource le(fixture("tiny_le.pcap"), ParseMode::kStrict);
  ingest::PcapColumnSource vlan(fixture("tiny_vlan.pcap"),
                                ParseMode::kStrict);
  const auto tr_le = collect_trace(le);
  const auto tr_vlan = collect_trace(vlan);

  ASSERT_EQ(tr_vlan.size(), kTinyPackets);
  EXPECT_TRUE(same_records(tr_le.records(), tr_vlan.records()));
  EXPECT_EQ(vlan.stats().vlan_frames, 14u);  // 13 IPv4 + the ARP frame
  EXPECT_EQ(vlan.stats().skipped_frames, 1u);
  EXPECT_EQ(vlan.stats().structural_errors(), 0u);
  EXPECT_NE(vlan.stats().to_string().find("vlan-tagged"),
            std::string::npos);
}

TEST(MmapPcapReader, StrictModeRejectsCorruptFixtures) {
  EXPECT_THROW(
      ingest::MmapPcapReader(fixture("badmagic.pcap"), ParseMode::kStrict),
      IngestError);
  // The packet source reads only the global header when it opens, so
  // mid-file damage surfaces at the first info() (a prescan) or drain.
  ingest::PcapColumnSource trunc(fixture("trunc.pcap"), ParseMode::kStrict);
  EXPECT_THROW(trunc.info(), IngestError);
  ingest::PcapColumnSource ooo(fixture("tiny_ooo.pcap"), ParseMode::kStrict);
  EXPECT_THROW(stream::collect_columns(ooo), IngestError);
}

TEST(MmapPcapReader, LenientModeAccountsForEveryDefect) {
  {
    ingest::MmapPcapReader reader(fixture("badmagic.pcap"),
                                  ParseMode::kLenient);
    EXPECT_FALSE(reader.header_ok());
    ingest::RawPacket pkt;
    EXPECT_FALSE(reader.next(pkt));
    EXPECT_EQ(reader.stats().bad_headers, 1u);
  }
  {
    // The cut removes the last record's tail: everything before it
    // parses, the truncation lands in the ledger.
    ingest::PcapColumnSource src(fixture("trunc.pcap"), ParseMode::kLenient);
    const auto tr = collect_trace(src);
    EXPECT_EQ(tr.size(), kTinyPackets - 1);
    EXPECT_EQ(src.stats().truncated_records, 1u);
    EXPECT_EQ(src.stats().skipped_frames, 1u);
    EXPECT_EQ(src.stats().records, kTinyPackets - 1);
  }
  {
    ingest::PcapColumnSource src(fixture("tiny_ooo.pcap"),
                                 ParseMode::kLenient);
    const auto tr = collect_trace(src);
    EXPECT_EQ(tr.size(), kTinyPackets);  // kept: binning is order-proof
    EXPECT_EQ(src.stats().out_of_order, 1u);
  }
}

TEST(MmapPcapReader, DistinguishesCleanEofFromTruncation) {
  // A file cut mid-record is truncation — not an I/O error, and not a
  // silent end of stream.
  {
    ingest::MmapPcapReader reader(fixture("trunc.pcap"), ParseMode::kLenient);
    ingest::RawPacket pkt;
    while (reader.next(pkt)) {
    }
    EXPECT_EQ(reader.stats().truncated_records, 1u);
    EXPECT_EQ(reader.stats().io_errors, 0u);
  }
  // A capture that is nothing but a valid global header ends exactly on
  // a record boundary: clean EOF, an empty ledger, even in strict mode.
  const std::string path = temp_path("header_only.pcap");
  {
    std::ofstream os(path, std::ios::binary);
    os << slurp(fixture("tiny_le.pcap")).substr(0, 24);
  }
  for (const auto mode : {ParseMode::kStrict, ParseMode::kLenient}) {
    ingest::MmapPcapReader reader(path, mode);
    ASSERT_TRUE(reader.header_ok());
    ingest::RawPacket pkt;
    EXPECT_FALSE(reader.next(pkt));
    EXPECT_EQ(reader.stats().structural_errors(), 0u);
    EXPECT_EQ(reader.stats().bytes, 24u);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------- flow reconstruction

TEST(FlowReconstruction, RebuildsTheFixtureConnections) {
  ingest::IngestOptions opt;
  ingest::IngestStats stats;
  const auto tr = ingest::reconstruct_conn_trace(
      fixture("tiny_le.pcap"), ingest::IngestFormat::kPcap, opt, &stats);

  ASSERT_EQ(tr.size(), 4u);
  const auto& recs = tr.records();

  // TELNET: closed by the pair of FINs.
  EXPECT_EQ(recs[0].protocol, Protocol::kTelnet);
  EXPECT_DOUBLE_EQ(recs[0].start, 100.0);
  EXPECT_NEAR(recs[0].duration, 1.1, 1e-9);
  EXPECT_EQ(recs[0].bytes_orig, 100u);
  EXPECT_EQ(recs[0].bytes_resp, 50u);

  // FTP control: the responder never FINs, so EOF flush closes it.
  EXPECT_EQ(recs[1].protocol, Protocol::kFtpCtrl);
  EXPECT_DOUBLE_EQ(recs[1].start, 102.0);
  EXPECT_DOUBLE_EQ(recs[1].duration, 3.0);
  EXPECT_EQ(recs[1].bytes_orig, 20u);

  // Active-mode FTPDATA: the server opened it from port 20, while the
  // control connection was live — so it carries the control conn's id
  // as its session, which is what FTP burst grouping keys on.
  EXPECT_EQ(recs[2].protocol, Protocol::kFtpData);
  EXPECT_DOUBLE_EQ(recs[2].start, 103.0);
  EXPECT_DOUBLE_EQ(recs[2].duration, 0.5);  // cut short by the RST
  EXPECT_EQ(recs[2].bytes_orig, 1000u);     // originator == the server
  EXPECT_NE(recs[2].session_id, 0u);

  EXPECT_EQ(recs[3].protocol, Protocol::kDns);
  EXPECT_DOUBLE_EQ(recs[3].start, 104.0);
  EXPECT_EQ(recs[3].bytes_orig, 30u);

  EXPECT_EQ(stats.records, kTinyPackets);
  EXPECT_EQ(stats.structural_errors(), 0u);
}

TEST(FlowReconstruction, PacketRecordsCarryFlowIdentity) {
  ingest::PcapColumnSource src(fixture("tiny_le.pcap"), ParseMode::kStrict);
  const auto tr = collect_trace(src);
  ASSERT_EQ(tr.size(), kTinyPackets);
  const auto& r = tr.records();

  // All five TELNET packets share one conn id and the right direction.
  for (int i : {0, 1, 2, 3, 4}) EXPECT_EQ(r[i].conn_id, r[0].conn_id);
  EXPECT_TRUE(r[0].from_originator);
  EXPECT_FALSE(r[1].from_originator);  // the SYN+ACK
  EXPECT_EQ(r[2].payload_bytes, 100);
  EXPECT_EQ(r[2].protocol, Protocol::kTelnet);

  // FTPDATA packets: originator is the server that sent the SYN.
  EXPECT_EQ(r[8].protocol, Protocol::kFtpData);
  EXPECT_TRUE(r[8].from_originator);
  EXPECT_NE(r[8].conn_id, r[5].conn_id);

  EXPECT_EQ(r[11].protocol, Protocol::kDns);
}

TEST(FlowReconstruction, IdleTimeoutSplitsSanitizedPacketFlows) {
  // lbl-pkt lines carry no flag bits, so the 5-second gap in the
  // fixture is the only connection boundary available.
  ingest::IngestOptions opt;
  opt.flow.idle_timeout = 2.0;
  const auto tr = ingest::reconstruct_conn_trace(
      fixture("sample.lbl-pkt"), ingest::IngestFormat::kLblPkt, opt);

  ASSERT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr.records()[0].protocol, Protocol::kTelnet);
  EXPECT_DOUBLE_EQ(tr.records()[0].start, 0.0);
  EXPECT_DOUBLE_EQ(tr.records()[0].duration, 0.03);
  EXPECT_EQ(tr.records()[0].bytes_orig, 100u);
  EXPECT_EQ(tr.records()[0].bytes_resp, 512u);
  EXPECT_EQ(tr.records()[1].protocol, Protocol::kNntp);
  EXPECT_EQ(tr.records()[1].bytes_resp, 1024u);
}

TEST(FlowReconstruction, ResetReproducesIdenticalRecords) {
  ingest::PcapColumnSource src(fixture("tiny_le.pcap"), ParseMode::kStrict);
  const auto first = collect_trace(src);
  src.reset();
  const auto second = collect_trace(src);
  EXPECT_TRUE(same_records(first.records(), second.records()));
}

// ------------------------------------------ connection golden pins

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

// FNV-1a over every field of every record, each widened to 8 bytes
// (doubles by their bit pattern).
std::uint64_t conn_digest(const trace::ConnTrace& tr) {
  Fnv1a f;
  for (const trace::ConnRecord& r : tr.records()) {
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

using Fmt = ingest::IngestFormat;

// One reconstruct_conn_trace call on a fixture: whether strict mode
// throws, else the range (as bits), record count, record digest and
// ledger it returns.
struct ConnPin {
  const char* file;
  Fmt format;
  double idle_timeout;
  ParseMode mode;
  bool throws;
  std::uint64_t t_begin_bits = 0;
  std::uint64_t t_end_bits = 0;
  std::size_t records = 0;
  std::uint64_t digest = 0;
  const char* ledger = "";
};

// Every fixture a connection path accepts, in both parse modes, with
// lbl-pkt also at a 2 s idle timeout. The values were taken from the
// two-pass connection chunk sources that the one-pass loader replaced.
const ConnPin kConnPins[] = {
    {"tiny_le.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 4, 0xb502b879881f04cbull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_le.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 4, 0xb502b879881f04cbull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_be.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 4, 0xb502b879881f04cbull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_be.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 4, 0xb502b879881f04cbull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_nsec.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, false,
     0x4059000000000000ull, 0x405a4000000112e1ull, 4, 0xb502b879881f04cbull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_nsec.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x4059000000000000ull, 0x405a4000000112e1ull, 4, 0xb502b879881f04cbull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_ooo.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, true},
    {"tiny_ooo.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 4, 0xb502b879881f04cbull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  out-of-order timestamps: 1\n"
     "  skipped frames: 1"},
    {"tiny_vlan.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 4, 0xb502b879881f04cbull,
     "ingested 13 record(s) from 1040 byte(s)\n"
     "  skipped frames: 1\n"
     "  vlan-tagged frames (decoded): 14"},
    {"tiny_vlan.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 4, 0xb502b879881f04cbull,
     "ingested 13 record(s) from 1040 byte(s)\n"
     "  skipped frames: 1\n"
     "  vlan-tagged frames (decoded): 14"},
    {"trunc.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, true},
    {"trunc.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x4059000000000000ull, 0x405a00000431bde8ull, 4, 0x965a8a2ced3e8a2aull,
     "ingested 12 record(s) from 926 byte(s)\n"
     "  truncated records: 1\n"
     "  skipped frames: 1"},
    {"badmagic.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, true},
    {"badmagic.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x0000000000000000ull, 0x0000000000000000ull, 0, 0xcbf29ce484222325ull,
     "ingested 0 record(s) from 24 byte(s)\n"
     "  bad headers: 1"},
    {"sample.lbl-pkt", Fmt::kLblPkt, 3600.0, ParseMode::kStrict, false,
     0x0000000000000000ull, 0x4014147b24638c97ull, 2, 0xcc032bbbd6a28009ull,
     "ingested 7 record(s) from 230 byte(s)"},
    {"sample.lbl-pkt", Fmt::kLblPkt, 3600.0, ParseMode::kLenient, false,
     0x0000000000000000ull, 0x4014147b24638c97ull, 2, 0xcc032bbbd6a28009ull,
     "ingested 7 record(s) from 230 byte(s)"},
    {"sample.lbl-pkt", Fmt::kLblPkt, 2.0, ParseMode::kStrict, false,
     0x0000000000000000ull, 0x4014147b24638c97ull, 2, 0xcc032bbbd6a28009ull,
     "ingested 7 record(s) from 230 byte(s)"},
    {"sample.lbl-pkt", Fmt::kLblPkt, 2.0, ParseMode::kLenient, false,
     0x0000000000000000ull, 0x4014147b24638c97ull, 2, 0xcc032bbbd6a28009ull,
     "ingested 7 record(s) from 230 byte(s)"},
    {"corrupt.lbl-pkt", Fmt::kLblPkt, 3600.0, ParseMode::kStrict, true},
    {"corrupt.lbl-pkt", Fmt::kLblPkt, 3600.0, ParseMode::kLenient, false,
     0x0000000000000000ull, 0x3f9eb8950763a190ull, 1, 0x11f6d991dbed0f84ull,
     "ingested 2 record(s) from 91 byte(s)\n"
     "  bad lines: 2"},
    {"corrupt.lbl-pkt", Fmt::kLblPkt, 2.0, ParseMode::kStrict, true},
    {"corrupt.lbl-pkt", Fmt::kLblPkt, 2.0, ParseMode::kLenient, false,
     0x0000000000000000ull, 0x3f9eb8950763a190ull, 1, 0x11f6d991dbed0f84ull,
     "ingested 2 record(s) from 91 byte(s)\n"
     "  bad lines: 2"},
    {"sample.lbl-conn", Fmt::kLblConn, 3600.0, ParseMode::kStrict, false,
     0x41287cba6b851eb8ull, 0x41287d2e9eb851ebull, 7, 0xd3fbb0edf4b705fbull,
     "ingested 7 record(s) from 341 byte(s)\n"
     "  unknown protocols: 1\n"
     "  missing '?' fields: 2"},
    {"sample.lbl-conn", Fmt::kLblConn, 3600.0, ParseMode::kLenient, false,
     0x41287cba6b851eb8ull, 0x41287d2e9eb851ebull, 7, 0xd3fbb0edf4b705fbull,
     "ingested 7 record(s) from 341 byte(s)\n"
     "  unknown protocols: 1\n"
     "  missing '?' fields: 2"},
    {"corrupt.lbl-conn", Fmt::kLblConn, 3600.0, ParseMode::kStrict, true},
    {"corrupt.lbl-conn", Fmt::kLblConn, 3600.0, ParseMode::kLenient, false,
     0x41287cba6b851eb8ull, 0x41287d2e9eb851ebull, 2, 0xd1ba088c8f890279ull,
     "ingested 2 record(s) from 116 byte(s)\n"
     "  bad lines: 2"},
};

TEST(ConnGoldenPins, ReconstructionMatchesPinnedOutput) {
  for (const ConnPin& pin : kConnPins) {
    SCOPED_TRACE(std::string(pin.file) +
                 (pin.mode == ParseMode::kStrict ? " strict" : " lenient") +
                 " idle " + std::to_string(pin.idle_timeout));
    ingest::IngestOptions opt;
    opt.mode = pin.mode;
    opt.flow.idle_timeout = pin.idle_timeout;
    const std::string path = fixture(pin.file);
    if (pin.throws) {
      EXPECT_THROW(ingest::reconstruct_conn_trace(path, pin.format, opt),
                   IngestError);
      continue;
    }
    ingest::IngestStats stats;
    const auto tr =
        ingest::reconstruct_conn_trace(path, pin.format, opt, &stats);
    EXPECT_EQ(tr.name(),
              std::string(ingest::to_string(pin.format)) + ":" + path);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tr.t_begin()), pin.t_begin_bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tr.t_end()), pin.t_end_bits);
    EXPECT_EQ(tr.size(), pin.records);
    EXPECT_EQ(conn_digest(tr), pin.digest);
    EXPECT_EQ(stats.to_string(), pin.ledger);
  }
}

// ---------------------------------------------- packet golden pins

// FNV-1a over the five columns of every row, each value widened to 8
// bytes (time by its bit pattern).
std::uint64_t packet_digest(const stream::PacketColumns& c) {
  Fnv1a f;
  for (std::size_t i = 0; i < c.size(); ++i) {
    f.mix(std::bit_cast<std::uint64_t>(c.time[i]));
    f.mix(static_cast<std::uint64_t>(c.protocol[i]));
    f.mix(c.conn_id[i]);
    f.mix(c.from_originator[i]);
    f.mix(c.payload_bytes[i]);
  }
  return f.h;
}

// One open_packet_column_source run on a fixture, drained: whether
// strict mode throws, else the source's range (as bits), row count, row
// digest and ledger. The fields are ConnPin's.
using PacketPin = ConnPin;

// Every packet fixture, in both parse modes, with lbl-pkt also at a 2 s
// idle timeout.
const PacketPin kPacketPins[] = {
    {"tiny_le.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 13, 0xb7bd8da26983c63aull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_le.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 13, 0xb7bd8da26983c63aull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_be.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 13, 0xb7bd8da26983c63aull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_be.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 13, 0xb7bd8da26983c63aull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_nsec.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, false,
     0x4059000000000000ull, 0x405a4000000112e1ull, 13, 0xb7bd8da26983c63aull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_nsec.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x4059000000000000ull, 0x405a4000000112e1ull, 13, 0xb7bd8da26983c63aull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  skipped frames: 1"},
    {"tiny_ooo.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, true},
    {"tiny_ooo.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 13, 0x0dc2832092bc789aull,
     "ingested 13 record(s) from 980 byte(s)\n"
     "  out-of-order timestamps: 1\n"
     "  skipped frames: 1"},
    {"tiny_vlan.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 13, 0xb7bd8da26983c63aull,
     "ingested 13 record(s) from 1040 byte(s)\n"
     "  skipped frames: 1\n"
     "  vlan-tagged frames (decoded): 14"},
    {"tiny_vlan.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x4059000000000000ull, 0x405a40000431bde8ull, 13, 0xb7bd8da26983c63aull,
     "ingested 13 record(s) from 1040 byte(s)\n"
     "  skipped frames: 1\n"
     "  vlan-tagged frames (decoded): 14"},
    {"trunc.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, true},
    {"trunc.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x4059000000000000ull, 0x405a00000431bde8ull, 12, 0x79702438b9636f61ull,
     "ingested 12 record(s) from 926 byte(s)\n"
     "  truncated records: 1\n"
     "  skipped frames: 1"},
    {"badmagic.pcap", Fmt::kPcap, 3600.0, ParseMode::kStrict, true},
    {"badmagic.pcap", Fmt::kPcap, 3600.0, ParseMode::kLenient, false,
     0x0000000000000000ull, 0x0000000000000000ull, 0, 0xcbf29ce484222325ull,
     "ingested 0 record(s) from 24 byte(s)\n"
     "  bad headers: 1"},
    {"sample.lbl-pkt", Fmt::kLblPkt, 3600.0, ParseMode::kStrict, false,
     0x0000000000000000ull, 0x4014147b24638c97ull, 7, 0xffc3bf0dfedd71f3ull,
     "ingested 7 record(s) from 230 byte(s)"},
    {"sample.lbl-pkt", Fmt::kLblPkt, 3600.0, ParseMode::kLenient, false,
     0x0000000000000000ull, 0x4014147b24638c97ull, 7, 0xffc3bf0dfedd71f3ull,
     "ingested 7 record(s) from 230 byte(s)"},
    {"sample.lbl-pkt", Fmt::kLblPkt, 2.0, ParseMode::kStrict, false,
     0x0000000000000000ull, 0x4014147b24638c97ull, 7, 0xffc3bf0dfedd71f3ull,
     "ingested 7 record(s) from 230 byte(s)"},
    {"sample.lbl-pkt", Fmt::kLblPkt, 2.0, ParseMode::kLenient, false,
     0x0000000000000000ull, 0x4014147b24638c97ull, 7, 0xffc3bf0dfedd71f3ull,
     "ingested 7 record(s) from 230 byte(s)"},
    {"corrupt.lbl-pkt", Fmt::kLblPkt, 3600.0, ParseMode::kStrict, true},
    {"corrupt.lbl-pkt", Fmt::kLblPkt, 3600.0, ParseMode::kLenient, false,
     0x0000000000000000ull, 0x3f9eb8950763a190ull, 2, 0xc57709560a71fe0eull,
     "ingested 2 record(s) from 91 byte(s)\n"
     "  bad lines: 2"},
    {"corrupt.lbl-pkt", Fmt::kLblPkt, 2.0, ParseMode::kStrict, true},
    {"corrupt.lbl-pkt", Fmt::kLblPkt, 2.0, ParseMode::kLenient, false,
     0x0000000000000000ull, 0x3f9eb8950763a190ull, 2, 0xc57709560a71fe0eull,
     "ingested 2 record(s) from 91 byte(s)\n"
     "  bad lines: 2"},
};

TEST(PacketGoldenPins, ColumnSourceMatchesPinnedOutput) {
  for (const PacketPin& pin : kPacketPins) {
    SCOPED_TRACE(std::string(pin.file) +
                 (pin.mode == ParseMode::kStrict ? " strict" : " lenient") +
                 " idle " + std::to_string(pin.idle_timeout));
    ingest::IngestOptions opt;
    opt.mode = pin.mode;
    opt.flow.idle_timeout = pin.idle_timeout;
    const std::string path = fixture(pin.file);
    if (pin.throws) {
      EXPECT_THROW(
          {
            const auto src =
                ingest::open_packet_column_source(path, pin.format, opt);
            stream::collect_columns(*src);
          },
          IngestError);
      continue;
    }
    const auto src = ingest::open_packet_column_source(path, pin.format, opt);
    const stream::PacketColumns cols = stream::collect_columns(*src);
    EXPECT_EQ(src->info().name,
              std::string(ingest::to_string(pin.format)) + ":" + path);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(src->info().t_begin),
              pin.t_begin_bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(src->info().t_end),
              pin.t_end_bits);
    EXPECT_EQ(cols.size(), pin.records);
    EXPECT_EQ(packet_digest(cols), pin.digest);
    EXPECT_EQ(src->stats().to_string(), pin.ledger);
  }
}

// A capture's range, pcap or lbl-pkt, asked before the first next(),
// comes from a prescan; asked after a drain, from the pass itself. Both
// give the pinned bits, rows and ledger. In the middle of the pass that
// learns the range, info() throws; reset() forgets that pass.
TEST(PacketGoldenPins, CaptureRangeBeforeAndAfterADrainAgree) {
  for (const PacketPin& pin : kPacketPins) {
    if (pin.throws) continue;
    SCOPED_TRACE(std::string(pin.file) +
                 (pin.mode == ParseMode::kStrict ? " strict" : " lenient") +
                 " idle " + std::to_string(pin.idle_timeout));
    ingest::IngestOptions opt;
    opt.mode = pin.mode;
    opt.flow.idle_timeout = pin.idle_timeout;
    const std::string path = fixture(pin.file);
    const auto early = ingest::open_packet_column_source(path, pin.format, opt);
    // No bridge: the factory hands out the format's own instantiation.
    EXPECT_TRUE(pin.format == Fmt::kPcap
                    ? dynamic_cast<const ingest::PcapColumnSource*>(
                          early.get()) != nullptr
                    : dynamic_cast<const ingest::LblPktColumnSource*>(
                          early.get()) != nullptr);
    const stream::StreamInfo prescanned = early->info();
    const stream::PacketColumns early_cols = stream::collect_columns(*early);
    const auto late = ingest::open_packet_column_source(path, pin.format, opt);
    const stream::PacketColumns late_cols = stream::collect_columns(*late);
    const stream::StreamInfo learned = late->info();
    for (const stream::StreamInfo* info : {&prescanned, &learned}) {
      EXPECT_EQ(info->name,
                std::string(ingest::to_string(pin.format)) + ":" + path);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(info->t_begin), pin.t_begin_bits);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(info->t_end), pin.t_end_bits);
    }
    EXPECT_EQ(&late->info(), &late->info());  // learned once, then held
    for (const auto* run : {early.get(), late.get()})
      EXPECT_EQ(run->stats().to_string(), pin.ledger);
    EXPECT_EQ(packet_digest(early_cols), pin.digest);
    EXPECT_EQ(packet_digest(late_cols), pin.digest);

    ingest::IngestOptions one_row = opt;
    one_row.chunk_size = 1;
    const auto mid =
        ingest::open_packet_column_source(path, pin.format, one_row);
    stream::PacketColumns chunk;
    if (mid->next(chunk)) {
      EXPECT_THROW(mid->info(), std::logic_error);
    }
    mid->reset();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mid->info().t_end),
              pin.t_end_bits);
    EXPECT_EQ(packet_digest(stream::collect_columns(*mid)), pin.digest);
  }
}

// ------------------------------------------------------- ITA ASCII

TEST(LblConn, ParsesSampleIncludingMissingFields) {
  ingest::IngestStats stats;
  const auto tr = ingest::reconstruct_conn_trace(
      fixture("sample.lbl-conn"), ingest::IngestFormat::kLblConn, {}, &stats);

  ASSERT_EQ(tr.size(), 7u);
  const auto& r = tr.records();
  EXPECT_EQ(r[0].protocol, Protocol::kTelnet);
  EXPECT_DOUBLE_EQ(r[0].start, 802397.21);
  EXPECT_DOUBLE_EQ(r[0].duration, 58.1);
  EXPECT_EQ(r[0].bytes_orig, 111u);
  EXPECT_EQ(r[0].bytes_resp, 222u);
  EXPECT_EQ(r[0].src_host, 2u);
  EXPECT_EQ(r[0].dst_host, 15u);

  // "?" duration and byte count parse as 0 and land in the ledger —
  // they are legitimate archive content, so strict mode accepts them.
  EXPECT_EQ(r[1].protocol, Protocol::kFtpCtrl);
  EXPECT_DOUBLE_EQ(r[1].duration, 0.0);
  EXPECT_EQ(r[1].bytes_resp, 0u);
  EXPECT_EQ(stats.missing_fields, 2u);

  EXPECT_EQ(r[2].protocol, Protocol::kFtpData);
  EXPECT_EQ(r[5].protocol, Protocol::kOther);  // "finger" is unmapped
  EXPECT_EQ(stats.unknown_protocols, 1u);
  EXPECT_EQ(stats.structural_errors(), 0u);

  EXPECT_DOUBLE_EQ(tr.t_begin(), 802397.21);
  // max(start + duration) over all rows — the long TELNET session.
  EXPECT_NEAR(tr.t_end(), 802455.31, 1e-6);
}

TEST(LblConn, CorruptLinesStrictVsLenient) {
  ingest::IngestOptions opt;
  EXPECT_THROW(ingest::reconstruct_conn_trace(fixture("corrupt.lbl-conn"),
                                              ingest::IngestFormat::kLblConn,
                                              opt),
               IngestError);

  opt.mode = ParseMode::kLenient;
  ingest::IngestStats stats;
  const auto tr = ingest::reconstruct_conn_trace(
      fixture("corrupt.lbl-conn"), ingest::IngestFormat::kLblConn, opt,
      &stats);
  EXPECT_EQ(tr.size(), 2u);  // the two parsable rows survive
  EXPECT_EQ(stats.bad_lines, 2u);
  EXPECT_EQ(stats.records, 2u);
}

TEST(LblPkt, CorruptLinesStrictVsLenient) {
  ingest::LblPktColumnSource strict(fixture("corrupt.lbl-pkt"),
                                    ParseMode::kStrict);
  EXPECT_THROW(strict.info(), IngestError);

  ingest::LblPktColumnSource src(fixture("corrupt.lbl-pkt"),
                                 ParseMode::kLenient);
  const auto tr = collect_trace(src);
  EXPECT_EQ(tr.size(), 2u);
  EXPECT_EQ(src.stats().bad_lines, 2u);
}

// nan and inf are no timestamps or durations: strict mode stops at the
// line, lenient mode counts it among the bad lines.
TEST(LblConn, NonFiniteNumbersAreBadLines) {
  const std::string path = temp_path("nonfinite.lbl-conn");
  std::ofstream(path) << "802397.21 58.1 telnet 111 222 2 15\n"
                         "nan 58.1 telnet 111 222 2 15\n"
                         "802400.5 inf telnet 111 222 2 15\n";
  try {
    ingest::reconstruct_conn_trace(path, ingest::IngestFormat::kLblConn, {});
    ADD_FAILURE() << "strict mode accepted nan";
  } catch (const IngestError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  ingest::IngestOptions opt;
  opt.mode = ParseMode::kLenient;
  ingest::IngestStats stats;
  const auto tr = ingest::reconstruct_conn_trace(
      path, ingest::IngestFormat::kLblConn, opt, &stats);
  EXPECT_EQ(tr.size(), 1u);
  EXPECT_EQ(stats.bad_lines, 2u);
  EXPECT_TRUE(std::isfinite(tr.t_end()));
  std::remove(path.c_str());
}

TEST(LblPkt, NonFiniteTimestampIsABadLine) {
  const std::string path = temp_path("nonfinite.lbl-pkt");
  std::ofstream(path) << "0.000000 1 2 1025 23 0\n"
                         "nan 2 1 23 1025 0\n"
                         "inf 1 2 1025 23 100\n"
                         "0.030000 2 1 23 1025 512\n";
  try {
    ingest::LblPktColumnSource strict(path, ParseMode::kStrict);
    strict.info();
    ADD_FAILURE() << "strict mode accepted nan";
  } catch (const IngestError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  ingest::LblPktColumnSource src(path, ParseMode::kLenient);
  const auto tr = collect_trace(src);
  EXPECT_EQ(tr.size(), 2u);
  EXPECT_EQ(src.stats().bad_lines, 2u);
  EXPECT_TRUE(std::isfinite(tr.t_end()));
  std::remove(path.c_str());
}

// ------------------------------------------------ downstream integration

TEST(IngestPipeline, BinaryRoundTripIsByteIdentical) {
  // Streaming the source through the chunked writer must produce the
  // same bytes as materializing the trace and writing it whole.
  const std::string chunked = temp_path("ingest_chunked.bin");
  const std::string whole = temp_path("ingest_whole.bin");

  ingest::PcapColumnSource src(fixture("tiny_le.pcap"), ParseMode::kStrict);
  {
    stream::ChunkedBinaryWriter writer(chunked, src.info());
    stream::PacketColumns chunk;
    std::vector<trace::PacketRecord> rows;
    while (src.next(chunk)) {
      rows.clear();
      chunk.to_rows(rows);
      writer.write(rows);
    }
    writer.close();
  }
  src.reset();
  trace::write_binary_file(collect_trace(src), whole);

  const std::string a = slurp(chunked);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(whole));

  // And the written file reads back as the same record sequence.
  src.reset();
  const auto direct = collect_trace(src);
  const auto reread = trace::read_packet_binary_file(chunked);
  EXPECT_TRUE(same_records(direct.records(), reread.records()));
  std::remove(chunked.c_str());
  std::remove(whole.c_str());
}

TEST(IngestPipeline, StreamedAnalysisMatchesBatch) {
  stream::PipelineOptions opt;
  opt.bin = 0.25;  // 5 s of fixture -> 20 bins
  opt.chunk_size = 4;

  ingest::PcapColumnSource src(fixture("tiny_le.pcap"), ParseMode::kStrict,
                               {}, opt.chunk_size);
  const auto streamed = stream::analyze_columns(src, opt);
  src.reset();
  const auto batch = stream::analyze_batch(collect_trace(src), opt);

  ASSERT_EQ(streamed.counts.size(), batch.counts.size());
  for (std::size_t i = 0; i < streamed.counts.size(); ++i)
    EXPECT_EQ(streamed.counts[i], batch.counts[i]);
  EXPECT_EQ(streamed.packets, batch.packets);
  EXPECT_EQ(stream::vt_csv(streamed), stream::vt_csv(batch));
}

// --------------------------------------------------------- classification

TEST(Classify, PortsMapToThePaperFamilies) {
  EXPECT_EQ(ingest::classify_tcp(23, 40000), Protocol::kTelnet);
  EXPECT_EQ(ingest::classify_tcp(513, 1023), Protocol::kRlogin);
  EXPECT_EQ(ingest::classify_tcp(21, 40000), Protocol::kFtpCtrl);
  EXPECT_EQ(ingest::classify_tcp(20, 40000), Protocol::kFtpData);
  EXPECT_EQ(ingest::classify_tcp(40000, 20), Protocol::kFtpData);  // active
  EXPECT_EQ(ingest::classify_tcp(25, 40000), Protocol::kSmtp);
  EXPECT_EQ(ingest::classify_tcp(119, 40000), Protocol::kNntp);
  EXPECT_EQ(ingest::classify_tcp(80, 40000), Protocol::kWww);
  EXPECT_EQ(ingest::classify_tcp(6000, 40000), Protocol::kX11);
  EXPECT_EQ(ingest::classify_tcp(40000, 40001), Protocol::kOther);

  EXPECT_EQ(ingest::classify_udp(53, 3000, false), Protocol::kDns);
  EXPECT_EQ(ingest::classify_udp(7000, 7000, true), Protocol::kMbone);
  EXPECT_EQ(ingest::classify_udp(7000, 7000, false), Protocol::kOther);

  EXPECT_EQ(ingest::protocol_from_service("telnet"), Protocol::kTelnet);
  EXPECT_EQ(ingest::protocol_from_service("ftp-data"), Protocol::kFtpData);
  EXPECT_EQ(ingest::protocol_from_service("WWW"), Protocol::kWww);
  EXPECT_EQ(ingest::protocol_from_service("finger"), std::nullopt);
}

}  // namespace
