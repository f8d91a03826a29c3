#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/synth/synthesizer.hpp"
#include "src/trace/burst.hpp"
#include "src/trace/conn_trace.hpp"
#include "src/trace/csv_io.hpp"
#include "src/trace/packet_trace.hpp"
#include "src/trace/protocol.hpp"

namespace wan::trace {
namespace {

ConnRecord conn(double start, double dur, Protocol p, std::uint64_t sid = 0,
                std::uint64_t bytes = 1000, std::uint32_t src = 1,
                std::uint32_t dst = 2) {
  ConnRecord r;
  r.start = start;
  r.duration = dur;
  r.protocol = p;
  r.session_id = sid;
  r.bytes_resp = bytes;
  r.src_host = src;
  r.dst_host = dst;
  return r;
}

// ------------------------------------------------------------- protocol

TEST(Protocol, RoundtripNames) {
  for (Protocol p : kAllProtocols) {
    const auto s = to_string(p);
    const auto back = protocol_from_string(s);
    ASSERT_TRUE(back.has_value()) << s;
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(protocol_from_string("BOGUS").has_value());
}

TEST(Protocol, UserSessionClassification) {
  EXPECT_TRUE(is_user_session_protocol(Protocol::kTelnet));
  EXPECT_TRUE(is_user_session_protocol(Protocol::kFtpCtrl));
  EXPECT_TRUE(is_user_session_protocol(Protocol::kRlogin));
  EXPECT_FALSE(is_user_session_protocol(Protocol::kFtpData));
  EXPECT_FALSE(is_user_session_protocol(Protocol::kNntp));
  EXPECT_FALSE(is_user_session_protocol(Protocol::kX11));
}

TEST(Protocol, TcpClassification) {
  EXPECT_TRUE(is_tcp(Protocol::kTelnet));
  EXPECT_FALSE(is_tcp(Protocol::kDns));
  EXPECT_FALSE(is_tcp(Protocol::kMbone));
}

// ------------------------------------------------------------ ConnTrace

TEST(ConnTrace, FilterAndArrivalTimes) {
  ConnTrace t("t", 0.0, 100.0);
  t.add(conn(5.0, 1.0, Protocol::kTelnet));
  t.add(conn(1.0, 1.0, Protocol::kFtpData));
  t.add(conn(3.0, 1.0, Protocol::kTelnet));
  const auto telnet = t.filter(Protocol::kTelnet);
  EXPECT_EQ(telnet.size(), 2u);
  const auto times = t.arrival_times(Protocol::kTelnet);
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 3.0);  // sorted
  EXPECT_DOUBLE_EQ(times[1], 5.0);
}

TEST(ConnTrace, SortBYStartAndSummary) {
  ConnTrace t("t", 0.0, 10.0);
  t.add(conn(5.0, 1.0, Protocol::kSmtp, 0, 100));
  t.add(conn(1.0, 1.0, Protocol::kSmtp, 0, 200));
  t.sort_by_start();
  EXPECT_DOUBLE_EQ(t.records()[0].start, 1.0);
  const auto rows = t.summary();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].connections, 2u);
  EXPECT_EQ(rows[0].bytes, 300u);
  EXPECT_EQ(t.total_bytes(), 300u);
}

// Coarse timestamps make equal starts common. The sort must give them
// one order whatever order they arrive in: 48 records over 3 start
// values, past introsort's 16-element insertion-sort cutoff, with ties
// on start + duration broken further down the fields.
TEST(ConnTrace, SortByStartIsTotalOnEqualStarts) {
  std::vector<ConnRecord> recs;
  for (std::uint32_t i = 0; i < 48; ++i) {
    ConnRecord r = conn(10.0 * (i % 3), 1.0 + (i % 2),
                        i % 4 < 2 ? Protocol::kSmtp : Protocol::kTelnet,
                        i % 5, 100 + i % 7, 1 + i % 3, 9 - i % 4);
    r.bytes_orig = i % 6;
    recs.push_back(r);
  }
  recs.push_back(recs[5]);  // equal in every field: interchangeable
  const auto key = [](const ConnRecord& r) {
    return std::tie(r.start, r.duration, r.protocol, r.src_host, r.dst_host,
                    r.bytes_orig, r.bytes_resp, r.session_id);
  };
  std::vector<ConnRecord> first;
  for (unsigned seed = 1; seed <= 5; ++seed) {
    std::mt19937 gen(seed);
    std::shuffle(recs.begin(), recs.end(), gen);
    ConnTrace t("t", 0.0, 100.0);
    for (const ConnRecord& r : recs) t.add(r);
    t.sort_by_start();
    const std::vector<ConnRecord>& got = t.records();
    ASSERT_EQ(got.size(), recs.size());
    for (std::size_t i = 1; i < got.size(); ++i)
      ASSERT_FALSE(key(got[i]) < key(got[i - 1]))
          << "seed " << seed << " record " << i;
    if (first.empty()) first = got;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_TRUE(key(got[i]) == key(first[i]))
          << "seed " << seed << " record " << i;
  }
}

TEST(ConnTrace, HourlyProfileNormalized) {
  ConnTrace t("t", 0.0, 86400.0);
  t.add(conn(9.5 * 3600.0, 1.0, Protocol::kTelnet));
  t.add(conn(9.7 * 3600.0, 1.0, Protocol::kTelnet));
  t.add(conn(14.0 * 3600.0, 1.0, Protocol::kTelnet));
  t.add(conn(26.0 * 3600.0, 1.0, Protocol::kTelnet));  // wraps to hour 2
  const auto prof = t.hourly_profile(Protocol::kTelnet);
  EXPECT_DOUBLE_EQ(prof[9], 0.5);
  EXPECT_DOUBLE_EQ(prof[14], 0.25);
  EXPECT_DOUBLE_EQ(prof[2], 0.25);
  double total = 0.0;
  for (double v : prof) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

// ---------------------------------------------------------- PacketTrace

TEST(PacketTrace, OriginatorDataFiltering) {
  PacketTrace t("p", 0.0, 10.0);
  PacketRecord a{1.0, Protocol::kTelnet, 1, true, 1};
  PacketRecord pure_ack{2.0, Protocol::kTelnet, 1, true, 0};
  PacketRecord resp{3.0, Protocol::kTelnet, 1, false, 5};
  t.add(a);
  t.add(pure_ack);
  t.add(resp);
  const auto filtered = t.originator_data_packets();
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_DOUBLE_EQ(filtered.records()[0].time, 1.0);
}

TEST(PacketTrace, BulkOutlierRemoval) {
  PacketTrace t("p", 0.0, 1000.0);
  // Connection 1: human typing — 50 packets of 1 byte over 500 s.
  for (int i = 0; i < 50; ++i)
    t.add({i * 10.0, Protocol::kTelnet, 1, true, 1});
  // Connection 2: a bulk blast — 2000 bytes in 10 s (200 B/s > 8 B/s).
  for (int i = 0; i < 20; ++i)
    t.add({i * 0.5, Protocol::kTelnet, 2, true, 100});
  // Connections 3-5: over 1024 bytes each, across 200 s, at 7.5 B/s,
  // exactly 8 B/s and 8.5 B/s. The rate rule is a strict '>', so 3 and 4
  // stay and 5 goes.
  const std::pair<std::uint32_t, std::uint16_t> paced[] = {
      {3, 750}, {4, 800}, {5, 850}};
  for (const auto& [conn, half] : paced) {
    t.add({100.0, Protocol::kTelnet, conn, true, half});
    t.add({300.0, Protocol::kTelnet, conn, true, half});
  }
  const auto cleaned = t.remove_bulk_outliers();
  EXPECT_EQ(cleaned.connection_count(), 3u);
  std::set<std::uint32_t> kept;
  for (const auto& r : cleaned.records()) kept.insert(r.conn_id);
  EXPECT_EQ(kept, (std::set<std::uint32_t>{1, 3, 4}));
}

TEST(PacketTrace, PacketTimesSortedAndByProtocol) {
  PacketTrace t("p", 0.0, 10.0);
  t.add({3.0, Protocol::kTelnet, 1, true, 1});
  t.add({1.0, Protocol::kFtpData, 2, true, 512});
  t.add({2.0, Protocol::kTelnet, 1, true, 1});
  const auto all = t.packet_times();
  EXPECT_DOUBLE_EQ(all[0], 1.0);
  EXPECT_DOUBLE_EQ(all[2], 3.0);
  EXPECT_EQ(t.packet_times(Protocol::kTelnet).size(), 2u);
  const auto rows = t.summary();
  EXPECT_EQ(rows.size(), 2u);
}

// ----------------------------------------------------------- burst code

TEST(Burst, GapRuleJoinsAndSplits) {
  ConnTrace t("t", 0.0, 1000.0);
  // Session 7: conns ending at 11, starting 13 (gap 2 <= 4: same burst);
  // then one starting at 30 (gap 14 > 4: new burst).
  t.add(conn(10.0, 1.0, Protocol::kFtpData, 7, 100));
  t.add(conn(13.0, 3.0, Protocol::kFtpData, 7, 200));
  t.add(conn(30.0, 5.0, Protocol::kFtpData, 7, 400));
  const auto bursts = find_ftp_bursts(t, 4.0);
  ASSERT_EQ(bursts.size(), 2u);
  EXPECT_EQ(bursts[0].n_connections, 2u);
  EXPECT_EQ(bursts[0].bytes, 300u);
  EXPECT_DOUBLE_EQ(bursts[0].start, 10.0);
  EXPECT_DOUBLE_EQ(bursts[0].end, 16.0);
  EXPECT_EQ(bursts[1].n_connections, 1u);
}

TEST(Burst, ExactGapBoundaryJoins) {
  ConnTrace t("t", 0.0, 100.0);
  t.add(conn(0.0, 1.0, Protocol::kFtpData, 1, 10));
  t.add(conn(5.0, 1.0, Protocol::kFtpData, 1, 10));  // gap exactly 4.0
  EXPECT_EQ(find_ftp_bursts(t, 4.0).size(), 1u);
  EXPECT_EQ(find_ftp_bursts(t, 3.9).size(), 2u);
}

TEST(Burst, SessionsDoNotMix) {
  ConnTrace t("t", 0.0, 100.0);
  t.add(conn(0.0, 1.0, Protocol::kFtpData, 1, 10));
  t.add(conn(2.0, 1.0, Protocol::kFtpData, 2, 10));  // other session
  const auto bursts = find_ftp_bursts(t, 4.0);
  EXPECT_EQ(bursts.size(), 2u);
}

TEST(Burst, HostPairGroupingMergesSessions) {
  ConnTrace t("t", 0.0, 100.0);
  t.add(conn(0.0, 1.0, Protocol::kFtpData, 1, 10, 5, 9));
  t.add(conn(2.0, 1.0, Protocol::kFtpData, 2, 10, 5, 9));  // same hosts
  EXPECT_EQ(find_ftp_bursts(t, 4.0, SessionGrouping::kHostPair).size(), 1u);
}

TEST(Burst, NonFtpDataIgnored) {
  ConnTrace t("t", 0.0, 100.0);
  t.add(conn(0.0, 1.0, Protocol::kFtpCtrl, 1, 10));
  t.add(conn(0.5, 1.0, Protocol::kTelnet, 1, 10));
  EXPECT_TRUE(find_ftp_bursts(t).empty());
}

TEST(Burst, EqualStartsOrderedByTheRemainingFields) {
  ConnTrace t("t", 0.0, 100.0);
  // Four sessions' bursts all start at 10; session order is the reverse
  // of (end, bytes) order.
  t.add(conn(10.0, 5.0, Protocol::kFtpData, 1, 10));
  t.add(conn(10.0, 3.0, Protocol::kFtpData, 2, 10));
  t.add(conn(10.0, 3.0, Protocol::kFtpData, 3, 5));
  t.add(conn(10.0, 1.0, Protocol::kFtpData, 4, 10));
  const auto bursts = find_ftp_bursts(t, 4.0);
  ASSERT_EQ(bursts.size(), 4u);
  EXPECT_EQ(bursts[0].session_id, 4u);  // ends at 11
  EXPECT_EQ(bursts[1].session_id, 3u);  // ends at 13, 5 bytes
  EXPECT_EQ(bursts[2].session_id, 2u);  // ends at 13, 10 bytes
  EXPECT_EQ(bursts[3].session_id, 1u);  // ends at 15
}

TEST(Burst, IntraSessionSpacings) {
  ConnTrace t("t", 0.0, 100.0);
  t.add(conn(0.0, 2.0, Protocol::kFtpData, 1, 10));
  t.add(conn(5.0, 1.0, Protocol::kFtpData, 1, 10));   // spacing 3
  t.add(conn(5.5, 1.0, Protocol::kFtpData, 1, 10));   // overlap -> clamp
  const auto sp = intra_session_spacings(t);
  ASSERT_EQ(sp.size(), 2u);
  EXPECT_DOUBLE_EQ(sp[0], 3.0);
  EXPECT_DOUBLE_EQ(sp[1], 1e-3);
}

TEST(Burst, HelpersExtractFields) {
  std::vector<FtpBurst> bursts = {
      {1.0, 2.0, 100, 1, 1}, {0.5, 3.0, 200, 2, 2}};
  const auto bytes = burst_bytes(bursts);
  EXPECT_DOUBLE_EQ(bytes[0], 100.0);
  const auto starts = burst_start_times(bursts);
  EXPECT_DOUBLE_EQ(starts[0], 0.5);  // sorted
}

// --------------------------------------------------------------- csv io

TEST(CsvIo, ConnRoundtrip) {
  ConnTrace t("t", 0.0, 50.0);
  t.add(conn(1.5, 2.5, Protocol::kFtpData, 42, 12345, 3, 4));
  t.add(conn(10.0, 0.5, Protocol::kTelnet, 0, 10, 1, 2));
  std::stringstream ss;
  write_csv(t, ss);
  const auto back = read_conn_csv(ss, "t");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_DOUBLE_EQ(back.t_end(), 50.0);
  EXPECT_DOUBLE_EQ(back.records()[0].start, 1.5);
  EXPECT_EQ(back.records()[0].protocol, Protocol::kFtpData);
  EXPECT_EQ(back.records()[0].session_id, 42u);
  EXPECT_EQ(back.records()[0].bytes_resp, 12345u);
}

TEST(CsvIo, PacketRoundtrip) {
  PacketTrace t("p", 0.0, 5.0);
  t.add({0.25, Protocol::kTelnet, 7, true, 1});
  t.add({1.75, Protocol::kDns, 8, false, 120});
  std::stringstream ss;
  write_csv(t, ss);
  const auto back = read_packet_csv(ss, "p");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.records()[1].protocol, Protocol::kDns);
  EXPECT_FALSE(back.records()[1].from_originator);
  EXPECT_EQ(back.records()[1].payload_bytes, 120);
}

TEST(CsvIo, MalformedInputRejected) {
  std::stringstream ss("header\n1.0,NOPE,1,1,1\n");
  EXPECT_THROW(read_packet_csv(ss), std::runtime_error);
  std::stringstream ss2("header\n1.0,2.0\n");
  EXPECT_THROW(read_conn_csv(ss2), std::runtime_error);
  std::stringstream empty("");
  EXPECT_THROW(read_conn_csv(empty), std::runtime_error);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(CsvIo, SynthesizedDayRoundtripsBitForBit) {
  const ConnTrace t =
      synth::synthesize_conn_trace(synth::lbl_conn_preset("day", 1.0, 1));
  std::stringstream ss;
  write_csv(t, ss);
  const ConnTrace back = read_conn_csv(ss, "day");
  EXPECT_EQ(bits(back.t_begin()), bits(t.t_begin()));
  EXPECT_EQ(bits(back.t_end()), bits(t.t_end()));
  ASSERT_EQ(back.size(), t.size());
  std::size_t differ = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const ConnRecord& a = t.records()[i];
    const ConnRecord& b = back.records()[i];
    differ += bits(a.start) != bits(b.start) ||
              bits(a.duration) != bits(b.duration) ||
              a.protocol != b.protocol || a.src_host != b.src_host ||
              a.dst_host != b.dst_host || a.bytes_orig != b.bytes_orig ||
              a.bytes_resp != b.bytes_resp || a.session_id != b.session_id;
  }
  EXPECT_EQ(differ, 0u);
}

TEST(CsvIo, PacketTraceFromFourteenHoursRoundtripsBitForBit) {
  PacketTrace t("p", 14 * 3600.0, 15 * 3600.0 + 1e-6);
  for (int i = 0; i < 1000; ++i) {
    t.add({14 * 3600.0 + 3.6 * i + 1e-6 * (i % 7), Protocol::kTelnet,
           static_cast<std::uint32_t>(i), i % 2 == 0,
           static_cast<std::uint16_t>(i)});
  }
  std::stringstream ss;
  write_csv(t, ss);
  const PacketTrace back = read_packet_csv(ss, "p");
  EXPECT_EQ(bits(back.t_begin()), bits(t.t_begin()));
  EXPECT_EQ(bits(back.t_end()), bits(t.t_end()));
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_EQ(bits(back.records()[i].time), bits(t.records()[i].time)) << i;
}

template <class Read>
void expect_rejected(const std::string& csv, const std::string& reason,
                     Read read) {
  std::stringstream ss(csv);
  try {
    read(ss);
    ADD_FAILURE() << "accepted: " << csv;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

TEST(CsvIo, NonFiniteNumbersRejected) {
  const auto conn = [](std::istream& is) { read_conn_csv(is); };
  const std::string head =
      "start,duration,protocol,src,dst,bytes_orig,bytes_resp,session\n";
  expect_rejected(head + "1,2,TELNET,1,2,3,4,0\nnan,2,TELNET,1,2,3,4,0\n",
                  "non-finite start at line 3", conn);
  expect_rejected(head + "1,-inf,TELNET,1,2,3,4,0\n",
                  "non-finite duration at line 2", conn);
  expect_rejected("# t_begin=0 t_end=inf name=x\n" + head,
                  "non-finite t_end at line 1", conn);

  const auto pkt = [](std::istream& is) { read_packet_csv(is); };
  expect_rejected("time,protocol,conn,orig,payload\ninf,TELNET,1,1,1\n",
                  "non-finite time at line 2", pkt);
  expect_rejected("# t_begin=NAN t_end=1 name=x\n"
                  "time,protocol,conn,orig,payload\n",
                  "non-finite t_begin at line 1", pkt);
}

// Fields parse whole and must fit their type: no junk suffix, no sign
// on an id, no wrap-around, and orig is 0 or 1.
TEST(CsvIo, PacketFieldsMustParseWholeAndFit) {
  const auto pkt = [](std::istream& is) { read_packet_csv(is); };
  const std::string head = "time,protocol,conn,orig,payload\n";
  const std::string ok = "1,TELNET,7,1,10\n";
  expect_rejected(head + ok + "2,TELNET,-1,1,10\n", "malformed conn at line 3",
                  pkt);
  expect_rejected(head + "1,TELNET,7x,1,10\n", "malformed conn at line 2", pkt);
  expect_rejected(head + "1,TELNET,4294967296,1,10\n",
                  "malformed conn at line 2", pkt);
  expect_rejected(head + "1,TELNET,7,1,70000\n", "malformed payload at line 2",
                  pkt);
  expect_rejected(head + "1,TELNET,7,2,10\n", "malformed orig at line 2", pkt);
  expect_rejected(head + "1,TELNET,7,,10\n", "malformed orig at line 2", pkt);
  expect_rejected(head + "1s,TELNET,7,1,10\n", "malformed time at line 2", pkt);
  expect_rejected(head + "1,TELNET,7,1,10,\n", "expected 5 fields at line 2",
                  pkt);

  std::stringstream ss(head + ok + "2,DNS,4294967295,0,65535\n");
  const PacketTrace back = read_packet_csv(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.records()[1].conn_id, 4294967295u);
  EXPECT_FALSE(back.records()[1].from_originator);
  EXPECT_EQ(back.records()[1].payload_bytes, 65535);
}

TEST(CsvIo, ConnFieldsMustParseWholeAndFit) {
  const auto conn = [](std::istream& is) { read_conn_csv(is); };
  const std::string head =
      "start,duration,protocol,src,dst,bytes_orig,bytes_resp,session\n";
  expect_rejected(head + "1,2,TELNET,-1,2,3,4,0\n", "malformed src at line 2",
                  conn);
  expect_rejected(head + "1,2,TELNET,1,4294967296,3,4,0\n",
                  "malformed dst at line 2", conn);
  expect_rejected(head + "1,2,TELNET,1,2,3x,4,0\n",
                  "malformed bytes_orig at line 2", conn);
  expect_rejected(head + "1,2,TELNET,1,2,3,18446744073709551616,0\n",
                  "malformed bytes_resp at line 2", conn);
  expect_rejected(head + "1,2,TELNET,1,2,3,4,-7\n",
                  "malformed session at line 2", conn);
  expect_rejected(head + "1,2s,TELNET,1,2,3,4,0\n",
                  "malformed duration at line 2", conn);
}

// Without a usable metadata line, a trace CSV's window is that of its
// records: from the earliest start to just past the latest end.
TEST(CsvIo, MetadataLessFilesTakeTheWindowOfTheirRecords) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::string meta : {"", "# t_begin=5 t_end=5 name=x\n"}) {
    std::stringstream pkt(meta + "time,protocol,conn,orig,payload\n"
                                 "50401,TELNET,1,1,1\n"
                                 "50400.25,TELNET,1,1,1\n");
    const PacketTrace p = read_packet_csv(pkt);
    EXPECT_EQ(p.t_begin(), 50400.25);
    EXPECT_EQ(p.t_end(), std::nextafter(50401.0, inf));

    std::stringstream cn(
        meta + "start,duration,protocol,src,dst,bytes_orig,bytes_resp,session\n"
               "50400.5,10,TELNET,1,2,3,4,0\n"
               "50405,20,TELNET,1,2,3,4,0\n");
    const ConnTrace c = read_conn_csv(cn);
    EXPECT_EQ(c.t_begin(), 50400.5);
    EXPECT_EQ(c.t_end(), std::nextafter(50425.0, inf));
  }
  std::stringstream empty("time,protocol,conn,orig,payload\n");
  const PacketTrace none = read_packet_csv(empty);
  EXPECT_EQ(none.t_begin(), 0.0);
  EXPECT_EQ(none.t_end(), 0.0);
}

// CRLF line endings (RFC 4180's) read exactly like LF ones.
TEST(CsvIo, CrlfFilesReadLikeLfFiles) {
  const auto crlf = [](const std::string& lf) {
    std::string out;
    for (char c : lf) {
      if (c == '\n') out += '\r';
      out += c;
    }
    return out;
  };

  PacketTrace p("p", 0.5, 9.25);
  p.add({0.75, Protocol::kTelnet, 7, true, 1});
  p.add({1.125, Protocol::kDns, 4294967295u, false, 65535});
  std::stringstream p_lf;
  write_csv(p, p_lf);
  std::stringstream p_crlf(crlf(p_lf.str()) + "\r\n");  // and a blank line
  const PacketTrace p_want = read_packet_csv(p_lf, "p");
  const PacketTrace p_got = read_packet_csv(p_crlf, "p");
  EXPECT_EQ(bits(p_got.t_begin()), bits(p_want.t_begin()));
  EXPECT_EQ(bits(p_got.t_end()), bits(p_want.t_end()));
  ASSERT_EQ(p_got.size(), p_want.size());
  for (std::size_t i = 0; i < p_want.size(); ++i) {
    const PacketRecord& a = p_got.records()[i];
    const PacketRecord& b = p_want.records()[i];
    EXPECT_EQ(bits(a.time), bits(b.time));
    EXPECT_EQ(a.protocol, b.protocol);
    EXPECT_EQ(a.conn_id, b.conn_id);
    EXPECT_EQ(a.from_originator, b.from_originator);
    EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  }

  ConnTrace c("c", 1.0, 60.0);
  c.add(conn(1.5, 2.5, Protocol::kFtpData, 42, 12345, 3, 4));
  c.add(conn(10.0, 0.5, Protocol::kTelnet, 0, 10, 1, 2));
  std::stringstream c_lf;
  write_csv(c, c_lf);
  std::stringstream c_crlf(crlf(c_lf.str()));
  const ConnTrace c_want = read_conn_csv(c_lf, "c");
  const ConnTrace c_got = read_conn_csv(c_crlf, "c");
  EXPECT_EQ(bits(c_got.t_begin()), bits(c_want.t_begin()));
  EXPECT_EQ(bits(c_got.t_end()), bits(c_want.t_end()));
  ASSERT_EQ(c_got.size(), c_want.size());
  for (std::size_t i = 0; i < c_want.size(); ++i) {
    const ConnRecord& a = c_got.records()[i];
    const ConnRecord& b = c_want.records()[i];
    EXPECT_EQ(bits(a.start), bits(b.start));
    EXPECT_EQ(bits(a.duration), bits(b.duration));
    EXPECT_EQ(a.protocol, b.protocol);
    EXPECT_EQ(a.src_host, b.src_host);
    EXPECT_EQ(a.dst_host, b.dst_host);
    EXPECT_EQ(a.bytes_orig, b.bytes_orig);
    EXPECT_EQ(a.bytes_resp, b.bytes_resp);
    EXPECT_EQ(a.session_id, b.session_id);
  }

  // Without the metadata line, the window comes from the CRLF rows too.
  std::stringstream bare("time,protocol,conn,orig,payload\r\n"
                         "50401,TELNET,1,1,1\r\n");
  const PacketTrace b = read_packet_csv(bare);
  EXPECT_EQ(b.t_begin(), 50401.0);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.records()[0].payload_bytes, 1);
}

TEST(CsvIo, FileRoundtrip) {
  ConnTrace t("t", 0.0, 10.0);
  t.add(conn(1.0, 1.0, Protocol::kWww, 3, 555));
  const std::string path = ::testing::TempDir() + "/wan_csvio_test.csv";
  write_csv_file(t, path);
  const auto back = read_conn_csv_file(path);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.records()[0].protocol, Protocol::kWww);
  EXPECT_THROW(read_conn_csv_file("/nonexistent/nope.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace wan::trace
