#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "src/rng/rng.hpp"
#include "src/trace/binary_io.hpp"

namespace wan::trace {
namespace {

PacketTrace sample_trace(std::size_t n) {
  PacketTrace tr("sample", 0.0, 100.0);
  rng::Rng rng(1);
  for (std::size_t i = 0; i < n; ++i) {
    PacketRecord r;
    r.time = rng.uniform(0.0, 100.0);
    r.protocol = static_cast<Protocol>(rng.uniform_int(11));
    r.conn_id = static_cast<std::uint32_t>(rng.uniform_int(1000));
    r.from_originator = rng.bernoulli(0.5);
    r.payload_bytes = static_cast<std::uint16_t>(rng.uniform_int(1500));
    tr.add(r);
  }
  tr.sort_by_time();
  return tr;
}

TEST(BinaryIo, RoundtripPreservesEverything) {
  const auto tr = sample_trace(5000);
  std::stringstream ss;
  write_binary(tr, ss);
  const auto back = read_packet_binary(ss);
  ASSERT_EQ(back.size(), tr.size());
  EXPECT_EQ(back.name(), tr.name());
  EXPECT_DOUBLE_EQ(back.t_begin(), tr.t_begin());
  EXPECT_DOUBLE_EQ(back.t_end(), tr.t_end());
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const auto& a = tr.records()[i];
    const auto& b = back.records()[i];
    EXPECT_DOUBLE_EQ(a.time, b.time);
    EXPECT_EQ(a.protocol, b.protocol);
    EXPECT_EQ(a.conn_id, b.conn_id);
    EXPECT_EQ(a.from_originator, b.from_originator);
    EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  }
}

TEST(BinaryIo, EmptyTraceRoundtrips) {
  PacketTrace tr("empty", 5.0, 6.0);
  std::stringstream ss;
  write_binary(tr, ss);
  const auto back = read_packet_binary(ss);
  EXPECT_EQ(back.size(), 0u);
  EXPECT_DOUBLE_EQ(back.t_begin(), 5.0);
}

TEST(BinaryIo, FileRoundtrip) {
  const auto tr = sample_trace(100);
  const std::string path = ::testing::TempDir() + "/wan_binio_test.bin";
  write_binary_file(tr, path);
  const auto back = read_packet_binary_file(path);
  EXPECT_EQ(back.size(), tr.size());
  std::remove(path.c_str());
  EXPECT_THROW(read_packet_binary_file("/nonexistent/x.bin"),
               std::runtime_error);
}

TEST(BinaryIo, BadMagicRejected) {
  std::stringstream ss("NOPE....................");
  EXPECT_THROW(read_packet_binary(ss), std::runtime_error);
}

TEST(BinaryIo, TruncatedStreamRejected) {
  const auto tr = sample_trace(50);
  std::stringstream ss;
  write_binary(tr, ss);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream cut(data);
  EXPECT_THROW(read_packet_binary(cut), std::runtime_error);
}

TEST(BinaryIo, CorruptProtocolByteRejected) {
  PacketTrace tr("x", 0.0, 1.0);
  PacketRecord r;
  r.time = 0.5;
  tr.add(r);
  std::stringstream ss;
  write_binary(tr, ss);
  std::string data = ss.str();
  // The protocol byte of record 0 sits right after the f64 time at the
  // end of the header. Smash it to 0xFF.
  data[data.size() - 8] = static_cast<char>(0xFF);
  std::stringstream bad(data);
  EXPECT_THROW(read_packet_binary(bad), std::runtime_error);
}

TEST(BinaryIo, NonFiniteHeaderTimeRejected) {
  // t_begin sits at bytes 8-15 of the header and t_end at 16-23, after
  // the magic and the version. A NaN t_end used to pass, and a windowed
  // analysis of the file then ran without end.
  const auto tr = sample_trace(10);
  std::stringstream ss;
  write_binary(tr, ss);
  const std::string good = ss.str();
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const std::size_t offset : {8u, 16u}) {
    for (const double v : bad) {
      std::string data = good;
      std::memcpy(data.data() + offset, &v, sizeof v);
      std::stringstream in(data);
      EXPECT_THROW(read_packet_header(in), std::runtime_error)
          << "offset " << offset << ", " << v;
    }
  }
  std::stringstream in(good);
  EXPECT_EQ(read_packet_header(in).t_end, tr.t_end());
}

}  // namespace
}  // namespace wan::trace
