// Monitor-subsystem pins: the tail-follow source's poll taxonomy
// (growing file vs pipe EOF vs corruption), speed-0 replay determinism,
// the replay's origin rule (strict: first packet, one decode pass, so
// FIFOs and mid-stream defects; lenient: the prescanned minimum),
// per-protocol fan-out parity against the offline windowed analyzer,
// SIGINT flush, the drift trackers' hysteresis, and the daemon CLI's
// strict flag handling.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/ingest/mmap_source.hpp"
#include "src/ingest/pcap_writer.hpp"
#include "src/ingest/sources.hpp"
#include "src/monitor/daemon.hpp"
#include "src/monitor/drift.hpp"
#include "src/monitor/mux.hpp"
#include "src/monitor/replay_source.hpp"
#include "src/monitor/tail_source.hpp"
#include "src/stream/window_analyzer.hpp"

namespace {

using namespace wan;

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name;
}

std::string fixture(const std::string& name) {
  return std::string(WAN_TEST_DATA_DIR) + "/" + name;
}

// --- synthetic traffic ---------------------------------------------------

/// Deterministic LCG traffic: ~`duration` seconds of mixed TELNET /
/// SMTP / FTPDATA connections, 20 packets each, on a whole-microsecond
/// grid with times computed exactly the way the pcap decoder does
/// (sec + usec * 1e-6), so the round trip is bit-exact.
std::vector<trace::PacketRecord> synth_records(double duration,
                                               std::uint32_t seed) {
  std::vector<trace::PacketRecord> records;
  std::uint64_t x = seed;
  auto rng = [&x]() {
    x = (x * 48271) % 2147483647;
    return static_cast<std::uint32_t>(x);
  };
  const trace::Protocol protos[] = {trace::Protocol::kTelnet,
                                    trace::Protocol::kSmtp,
                                    trace::Protocol::kFtpData};
  std::int64_t t_us = 100'000'000;  // start at t = 100 s
  const std::int64_t end_us = t_us + static_cast<std::int64_t>(duration * 1e6);
  std::size_t i = 0;
  while (t_us < end_us) {
    trace::PacketRecord r;
    const std::int64_t sec = t_us / 1'000'000;
    const std::int64_t usec = t_us % 1'000'000;
    r.time = static_cast<double>(sec) + static_cast<double>(usec) * 1e-6;
    r.conn_id = static_cast<std::uint32_t>(1 + i / 20);
    r.protocol = protos[(i / 20) % 3];
    // Even connections open originator-first (SYN), odd ones with the
    // responder speaking first (SYN|ACK) — both writer paths exercised.
    r.from_originator =
        (i % 20 == 0) ? ((i / 20) % 2 == 0) : (rng() % 3 != 0);
    r.payload_bytes = static_cast<std::uint16_t>(rng() % 1400);
    records.push_back(r);
    t_us += 1000 + rng() % 200000;  // 1 ms .. 201 ms gaps
    ++i;
  }
  return records;
}

stream::WindowedOptions test_geometry() {
  stream::WindowedOptions opt;
  opt.bin = 0.5;
  opt.window = 60.0;
  opt.slide = 30.0;
  opt.poisson_interval = 10.0;
  return opt;
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void append_bytes(const std::string& path, const unsigned char* data,
                  std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(data), n);
}

void expect_report_eq(const stream::WindowReport& a,
                      const stream::WindowReport& b) {
  EXPECT_EQ(a.t0, b.t0);
  EXPECT_EQ(a.t1, b.t1);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.mean_count, b.mean_count);
  EXPECT_EQ(a.var_count, b.var_count);
  EXPECT_EQ(a.mean_burst_bins, b.mean_burst_bins);
  EXPECT_EQ(a.mean_lull_bins, b.mean_lull_bins);
  // NaN == NaN must count as equal (too-sparse windows).
  if (a.vt_hurst == a.vt_hurst || b.vt_hurst == b.vt_hurst) {
    EXPECT_EQ(a.vt_hurst, b.vt_hurst);
  }
  EXPECT_EQ(a.whittle.hurst, b.whittle.hurst);
  EXPECT_EQ(a.whittle.stderr_hurst, b.whittle.stderr_hurst);
  EXPECT_EQ(a.whittle_warm, b.whittle_warm);
  EXPECT_EQ(a.sweep_hurst, b.sweep_hurst);
  ASSERT_EQ(a.poisson.has_value(), b.poisson.has_value());
  if (a.poisson) {
    EXPECT_EQ(a.poisson->n_intervals, b.poisson->n_intervals);
    EXPECT_EQ(a.poisson->n_pass_exponential, b.poisson->n_pass_exponential);
    EXPECT_EQ(a.poisson->n_pass_independence, b.poisson->n_pass_independence);
    EXPECT_EQ(a.poisson->poisson, b.poisson->poisson);
    EXPECT_EQ(a.poisson->lag1_sign_bias, b.poisson->lag1_sign_bias);
  }
}

// --- pcap writer round trip ---------------------------------------------

TEST(PcapWriter, RoundTripsRecordsThroughTheColumnSource) {
  const std::vector<trace::PacketRecord> records = synth_records(30.0, 7);
  ASSERT_GT(records.size(), 100u);
  const std::string path = tmp_path("writer_roundtrip.pcap");
  ingest::write_pcap_for_records(path, records);

  ingest::PcapColumnSource src(path, ingest::ParseMode::kStrict);
  stream::PacketColumns chunk;
  std::size_t i = 0;
  while (src.next(chunk)) {
    for (std::size_t k = 0; k < chunk.size(); ++k, ++i) {
      ASSERT_LT(i, records.size());
      EXPECT_EQ(chunk.time[k], records[i].time);
      EXPECT_EQ(chunk.protocol[k], records[i].protocol);
      EXPECT_EQ(chunk.conn_id[k], records[i].conn_id);
      EXPECT_EQ(chunk.from_originator[k] != 0, records[i].from_originator);
      EXPECT_EQ(chunk.payload_bytes[k], records[i].payload_bytes);
    }
  }
  EXPECT_EQ(i, records.size());
  EXPECT_EQ(src.stats().records, records.size());
  EXPECT_EQ(src.stats().structural_errors(), 0u);
}

// --- tail-follow ---------------------------------------------------------

TEST(TailPcapSource, FollowsIncrementalAppendsAndHoldsPartialRecords) {
  const std::vector<trace::PacketRecord> records = synth_records(5.0, 11);
  const std::string full = tmp_path("tail_full.pcap");
  ingest::write_pcap_for_records(full, records);
  const std::vector<unsigned char> bytes = slurp(full);
  constexpr std::size_t kRec = 16 + 54;  // record header + headers-only frame
  ASSERT_EQ(bytes.size(), 24 + records.size() * kRec);

  const std::string grow = tmp_path("tail_grow.pcap");
  std::ofstream(grow, std::ios::binary | std::ios::trunc).close();
  monitor::TailPcapSource tail(grow, ingest::ParseMode::kStrict);
  std::vector<ingest::RawPacket> got;

  // Empty file, then a header alone: caught up, nothing decoded.
  EXPECT_EQ(tail.poll(got, 64), monitor::PollStatus::kCaughtUp);
  append_bytes(grow, bytes.data(), 24);
  EXPECT_EQ(tail.poll(got, 64), monitor::PollStatus::kCaughtUp);
  EXPECT_TRUE(tail.header_ok());
  EXPECT_TRUE(got.empty());

  // One full record plus half of the next: the complete one decodes,
  // the partial is held (not consumed, not an error) until its bytes
  // land — a writer mid-write must look like "not done yet".
  append_bytes(grow, bytes.data() + 24, kRec + kRec / 2);
  EXPECT_EQ(tail.poll(got, 64), monitor::PollStatus::kProgress);
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(tail.poll(got, 64), monitor::PollStatus::kCaughtUp);
  EXPECT_EQ(got.size(), 1u);
  EXPECT_EQ(tail.stats().truncated_records, 0u);

  // Complete the held record and append everything else.
  append_bytes(grow, bytes.data() + 24 + kRec + kRec / 2,
               bytes.size() - 24 - kRec - kRec / 2);
  while (tail.poll(got, 64) == monitor::PollStatus::kProgress) {
  }
  // A regular file can always grow again — never end-of-stream.
  EXPECT_EQ(tail.poll(got, 64), monitor::PollStatus::kCaughtUp);

  // Record-for-record and ledger parity with the offline reader over
  // the finished file.
  ingest::MmapPcapReader offline(grow, ingest::ParseMode::kStrict);
  std::vector<ingest::RawPacket> want;
  offline.next_batch(want, records.size() + 8);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time);
    EXPECT_EQ(got[i].src_ip, want[i].src_ip);
    EXPECT_EQ(got[i].dst_ip, want[i].dst_ip);
    EXPECT_EQ(got[i].src_port, want[i].src_port);
    EXPECT_EQ(got[i].dst_port, want[i].dst_port);
    EXPECT_EQ(got[i].tcp_flags, want[i].tcp_flags);
    EXPECT_EQ(got[i].payload_bytes, want[i].payload_bytes);
  }
  EXPECT_EQ(tail.stats().records, offline.stats().records);
  EXPECT_EQ(tail.stats().bytes, offline.stats().bytes);
  EXPECT_EQ(tail.bytes_consumed(), bytes.size());
}

TEST(TailPcapSource, PipeEofIsCleanAtABoundaryAndCorruptMidRecord) {
  const std::vector<trace::PacketRecord> records = synth_records(2.0, 13);
  const std::string full = tmp_path("tail_pipe.pcap");
  ingest::write_pcap_for_records(full, records);
  const std::vector<unsigned char> bytes = slurp(full);

  auto run_pipe = [&](std::size_t n_bytes, ingest::ParseMode mode,
                      std::vector<ingest::RawPacket>& got) {
    int fds[2];
    EXPECT_EQ(pipe(fds), 0);
    EXPECT_EQ(write(fds[1], bytes.data(), n_bytes),
              static_cast<ssize_t>(n_bytes));
    close(fds[1]);
    const int saved = dup(0);
    dup2(fds[0], 0);
    close(fds[0]);
    monitor::TailPcapSource tail("-", mode);
    monitor::PollStatus st;
    ingest::IngestStats stats;
    try {
      do {
        st = tail.poll(got, 64);
      } while (st == monitor::PollStatus::kProgress ||
               st == monitor::PollStatus::kCaughtUp);
      stats = tail.stats();
    } catch (...) {
      dup2(saved, 0);
      close(saved);
      throw;
    }
    dup2(saved, 0);
    close(saved);
    return std::make_pair(st, stats);
  };

  // EOF exactly at a record boundary: a clean end of stream.
  std::vector<ingest::RawPacket> got;
  auto [st_clean, stats_clean] =
      run_pipe(24 + 3 * (16 + 54), ingest::ParseMode::kLenient, got);
  EXPECT_EQ(st_clean, monitor::PollStatus::kEndOfStream);
  EXPECT_EQ(got.size(), 3u);
  EXPECT_EQ(stats_clean.truncated_records, 0u);

  // EOF mid-record: no future append can complete it — corrupt, and
  // ledgered exactly like the offline readers' truncated_records.
  got.clear();
  auto [st_trunc, stats_trunc] =
      run_pipe(24 + 2 * (16 + 54) + 30, ingest::ParseMode::kLenient, got);
  EXPECT_EQ(st_trunc, monitor::PollStatus::kCorrupt);
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(stats_trunc.truncated_records, 1u);

  // Strict mode throws through the same report() choke point.
  got.clear();
  EXPECT_THROW(run_pipe(24 + 40, ingest::ParseMode::kStrict, got),
               ingest::IngestError);
}

TEST(TailPcapSource, BadMagicIsCorruptNotRetried) {
  monitor::TailPcapSource tail(fixture("badmagic.pcap"),
                               ingest::ParseMode::kLenient);
  std::vector<ingest::RawPacket> got;
  EXPECT_EQ(tail.poll(got, 8), monitor::PollStatus::kCorrupt);
  EXPECT_EQ(tail.poll(got, 8), monitor::PollStatus::kCorrupt);  // sticky
  EXPECT_EQ(tail.stats().bad_headers, 1u);
  EXPECT_TRUE(got.empty());
}

// --- replay determinism and offline parity -------------------------------

monitor::MonitorOptions quiet_options(std::ostream* rep) {
  monitor::MonitorOptions opt;
  opt.window = test_geometry();
  opt.protocols = {trace::Protocol::kTelnet, trace::Protocol::kSmtp,
                   trace::Protocol::kFtpData};
  opt.stats_interval = 0.0;
  opt.report_out = rep;
  return opt;
}

/// The report stream of a speed-0 replay of `path` in `mode`.
std::string replay_stream(const std::string& path, ingest::ParseMode mode) {
  std::ostringstream rep;
  monitor::MonitorOptions opt = quiet_options(&rep);
  opt.mode = mode;
  monitor::MonitorDaemon daemon(opt);
  monitor::ReplaySource source(path, opt.mode, /*speed=*/0.0, opt.flow,
                               opt.chunk_size, daemon.stop_flag());
  EXPECT_EQ(daemon.run_replay(source), 0);
  return rep.str();
}

TEST(MonitorDaemon, SpeedZeroReplayIsByteIdenticalAcrossRuns) {
  const std::string path = tmp_path("replay_det.pcap");
  ingest::write_pcap_for_records(path, synth_records(200.0, 17));

  const std::string a = replay_stream(path, ingest::ParseMode::kStrict);
  const std::string b = replay_stream(path, ingest::ParseMode::kStrict);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"engine\":\"ALL\""), std::string::npos);
  EXPECT_NE(a.find("# shutdown: end of capture"), std::string::npos);
  EXPECT_NE(a.find("# ingested "), std::string::npos);

  // On an in-order capture the two origins agree: the strict replay's
  // first packet is the lenient one's prescanned minimum.
  EXPECT_EQ(replay_stream(path, ingest::ParseMode::kLenient), a);
}

// A strict replay decodes its capture once, with no prescan and no
// rewind, so a FIFO, which cannot rewind, gives the file's stream.
TEST(MonitorDaemon, StrictReplayOfAFifoEmitsTheFilesStream) {
  const std::string path = tmp_path("replay_fifo_src.pcap");
  ingest::write_pcap_for_records(path, synth_records(200.0, 37));
  const std::vector<unsigned char> bytes = slurp(path);
  const std::string fifo = tmp_path("replay.fifo");
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

  // The writer blocks in open() until the replay opens the FIFO. A
  // reader that gives up early makes its writes fail with EPIPE, not
  // end the test with SIGPIPE.
  const auto saved_sigpipe = std::signal(SIGPIPE, SIG_IGN);
  std::thread writer([&] {
    const int fd = ::open(fifo.c_str(), O_WRONLY);
    if (fd < 0) return;
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(fd);
  });
  const auto cleanup = [&] {
    writer.join();
    std::signal(SIGPIPE, saved_sigpipe);
    ::unlink(fifo.c_str());
  };
  std::string piped;
  try {
    piped = replay_stream(fifo, ingest::ParseMode::kStrict);
  } catch (...) {
    cleanup();
    throw;
  }
  cleanup();
  EXPECT_NE(piped.find("\"engine\":\"ALL\""), std::string::npos);
  EXPECT_EQ(piped, replay_stream(path, ingest::ParseMode::kStrict));
}

// A strict replay meets a capture's defect where the pass reaches it:
// the constructor reads no record, and run_replay throws after writing
// the reports the records before the defect complete.
TEST(MonitorDaemon, StrictDefectSurfacesFromRunReplayAfterEarlierReports) {
  const std::vector<trace::PacketRecord> records = synth_records(200.0, 41);
  const std::string clean = tmp_path("replay_defect_clean.pcap");
  ingest::write_pcap_for_records(clean, records);

  // A record header of all ones, whose length field claims 4 GiB
  // (beyond the reader's sanity cap), after the records of the first
  // 150 s: the 60 s windows, 30 s apart, that end by 120 s close
  // before it.
  std::vector<unsigned char> bytes = slurp(clean);
  constexpr std::size_t kRec = 16 + 54;  // record header + headers-only frame
  std::size_t k = 0;
  while (records[k].time < records.front().time + 150.0) ++k;
  const std::vector<unsigned char> bad(16, 0xFF);
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(24 + k * kRec),
               bad.begin(), bad.end());
  const std::string path = tmp_path("replay_defect.pcap");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::ostringstream rep;
  monitor::MonitorOptions opt = quiet_options(&rep);
  opt.chunk_size = 64;
  monitor::MonitorDaemon daemon(opt);
  std::unique_ptr<monitor::ReplaySource> source;
  ASSERT_NO_THROW(source = std::make_unique<monitor::ReplaySource>(
                      path, opt.mode, 0.0, opt.flow, opt.chunk_size,
                      daemon.stop_flag()));
  EXPECT_THROW(daemon.run_replay(*source), ingest::IngestError);

  // What came out is the clean capture's stream up to the defect: its
  // reports, without the final flush or the ledger.
  const std::string got = rep.str();
  EXPECT_NE(got.find("\"engine\":\"ALL\""), std::string::npos);
  EXPECT_EQ(got.find("# shutdown:"), std::string::npos);
  const std::string want = replay_stream(clean, ingest::ParseMode::kStrict);
  ASSERT_LT(got.size(), want.size());
  EXPECT_EQ(want.substr(0, got.size()), got);
}

// No packet, no engine: a header-only capture's stream is the ledger.
TEST(MonitorDaemon, HeaderOnlyCaptureEmitsTheLedgerAlone) {
  const std::string path = tmp_path("replay_header_only.pcap");
  ingest::write_pcap_for_records(path, {});
  for (const auto mode :
       {ingest::ParseMode::kStrict, ingest::ParseMode::kLenient})
    EXPECT_EQ(replay_stream(path, mode),
              "# shutdown: end of capture\n"
              "# ingested 0 record(s) from 24 byte(s)\n");
}

TEST(MonitorDaemon, FanOutMatchesOfflineWindowedAnalysisPerEngine) {
  const std::string in_order = tmp_path("replay_parity.pcap");
  ingest::write_pcap_for_records(in_order, synth_records(200.0, 19));
  // A first record later than its second, within one bin: a lenient
  // replay anchors at the prescanned minimum, as analyze_windowed does,
  // not at its first packet.
  std::vector<trace::PacketRecord> swapped = synth_records(200.0, 19);
  std::swap(swapped[0].time, swapped[1].time);
  ASSERT_GT(swapped[0].time, swapped[1].time);
  ASSERT_LT(swapped[0].time - swapped[1].time, test_geometry().bin);
  const std::string out_of_order = tmp_path("replay_parity_ooo.pcap");
  ingest::write_pcap_for_records(out_of_order, swapped);

  const struct {
    const std::string& path;
    ingest::ParseMode mode;
  } inputs[] = {{in_order, ingest::ParseMode::kStrict},
                {out_of_order, ingest::ParseMode::kLenient}};
  for (const auto& input : inputs) {
    SCOPED_TRACE(input.path);
    std::ostringstream rep;
    monitor::MonitorOptions opt = quiet_options(&rep);
    opt.mode = input.mode;
    std::map<std::string, std::vector<stream::WindowReport>> live;
    opt.report_hook = [&](const std::string& engine,
                          const stream::WindowReport& r) {
      live[engine].push_back(r);
    };
    monitor::MonitorDaemon daemon(opt);
    monitor::ReplaySource source(input.path, opt.mode, 0.0, opt.flow,
                                 opt.chunk_size, daemon.stop_flag());
    ASSERT_EQ(daemon.run_replay(source), 0);
    ASSERT_FALSE(live["ALL"].empty());

    // Engine vs the offline analyzer with the matching protocol filter,
    // field by field. Same decode, same flow table, same boundaries —
    // the mux's lockstep advance must not perturb a single value.
    const struct {
      const char* name;
      std::optional<trace::Protocol> protocol;
    } engines[] = {{"ALL", std::nullopt},
                   {"TELNET", trace::Protocol::kTelnet},
                   {"SMTP", trace::Protocol::kSmtp},
                   {"FTPDATA", trace::Protocol::kFtpData}};
    for (const auto& e : engines) {
      stream::WindowedOptions off = test_geometry();
      off.protocol = e.protocol;
      ingest::PcapColumnSource src(input.path, input.mode);
      const std::vector<stream::WindowReport> want =
          stream::analyze_windowed(src, off);
      const std::vector<stream::WindowReport>& have = live[e.name];
      ASSERT_EQ(have.size(), want.size()) << e.name;
      for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE(std::string(e.name) + " report " + std::to_string(i));
        expect_report_eq(have[i], want[i]);
      }
    }
  }
}

TEST(MonitorDaemon, TailFollowEmitsTheSameReportsAsReplay) {
  const std::string path = tmp_path("follow_parity.pcap");
  ingest::write_pcap_for_records(path, synth_records(150.0, 23));

  std::ostringstream rep_follow;
  monitor::MonitorOptions opt = quiet_options(&rep_follow);
  opt.poll_interval = 0.01;
  {
    monitor::MonitorDaemon daemon(opt);
    monitor::TailPcapSource tail(path, opt.mode);
    // The file is complete, so the daemon would tail it forever; stop
    // it from another thread once the source has caught up.
    std::thread stopper([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      daemon.request_stop();
    });
    EXPECT_EQ(daemon.run_follow(tail), 0);
    stopper.join();
  }

  std::ostringstream rep_replay;
  monitor::MonitorOptions ropt = quiet_options(&rep_replay);
  monitor::MonitorDaemon daemon(ropt);
  monitor::ReplaySource source(path, ropt.mode, 0.0, ropt.flow,
                               ropt.chunk_size, daemon.stop_flag());
  ASSERT_EQ(daemon.run_replay(source), 0);

  // Same reports; the shutdown reason differs ("stop requested" vs
  // "end of capture"), so compare only the JSON report lines.
  auto json_lines = [](const std::string& s) {
    std::vector<std::string> lines;
    std::istringstream in(s);
    for (std::string line; std::getline(in, line);)
      if (!line.empty() && line[0] == '{') lines.push_back(line);
    return lines;
  };
  const auto follow_lines = json_lines(rep_follow.str());
  const auto replay_lines = json_lines(rep_replay.str());
  ASSERT_FALSE(replay_lines.empty());
  EXPECT_EQ(follow_lines, replay_lines);
}

TEST(MonitorDaemon, SigintFlushesFinalReportsAndLedger) {
  const std::string path = tmp_path("sigint.pcap");
  ingest::write_pcap_for_records(path, synth_records(150.0, 29));

  std::ostringstream rep;
  monitor::MonitorOptions opt = quiet_options(&rep);
  opt.poll_interval = 0.01;
  std::atomic<std::size_t> seen{0};
  opt.report_hook = [&](const std::string&, const stream::WindowReport&) {
    seen.fetch_add(1, std::memory_order_relaxed);
  };

  monitor::MonitorDaemon::install_signal_handlers();
  monitor::MonitorDaemon::reset_signal_stop();
  monitor::MonitorDaemon daemon(opt);
  monitor::TailPcapSource tail(path, opt.mode);

  int rc = -1;
  std::thread runner([&] { rc = daemon.run_follow(tail); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (seen.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GT(seen.load(), 0u) << "daemon never emitted a report";
  raise(SIGINT);
  runner.join();
  monitor::MonitorDaemon::reset_signal_stop();

  EXPECT_EQ(rc, 0);
  const std::string out = rep.str();
  EXPECT_NE(out.find("# shutdown: stop requested"), std::string::npos);
  EXPECT_NE(out.find("# ingested "), std::string::npos);
  // The flush drained whole rounds: every engine emitted equally often.
  EXPECT_EQ(seen.load() % 4, 0u);
}

// --- drift trackers ------------------------------------------------------

stream::WindowReport fake_report(double t1, double hurst, bool warm,
                                 bool poisson_verdict) {
  stream::WindowReport r;
  r.t0 = t1 - 60.0;
  r.t1 = t1;
  r.whittle.hurst = hurst;
  r.whittle_warm = warm;
  stats::PoissonTestResult p;
  p.n_intervals = 6;
  p.n_pass_exponential = poisson_verdict ? 6 : 1;
  p.poisson = poisson_verdict;
  r.poisson = p;
  return r;
}

TEST(DriftTracker, PoissonStateNeedsAFullRingAndFlipsWithHysteresis) {
  monitor::DriftConfig cfg;
  cfg.verdict_window = 4;
  cfg.flip_count = 3;
  cfg.confirm_every = 100;  // keep "still" lines out of this test
  monitor::DriftTracker tracker("TELNET", cfg);
  std::vector<std::string> lines;

  double t = 100.0;
  for (int i = 0; i < 3; ++i) {
    tracker.on_report(fake_report(t += 30.0, 0.5, false, true), lines);
    EXPECT_TRUE(lines.empty()) << "announced before the ring filled";
    EXPECT_EQ(tracker.poisson_state(), 0);
  }
  tracker.on_report(fake_report(t += 30.0, 0.5, false, true), lines);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "TELNET arrivals look Poisson (Appendix A pass 4/4 windows)");
  EXPECT_EQ(tracker.poisson_state(), 1);

  // Two failing windows: not enough to flip (hysteresis holds)...
  lines.clear();
  tracker.on_report(fake_report(t += 30.0, 0.5, false, false), lines);
  tracker.on_report(fake_report(t += 30.0, 0.5, false, false), lines);
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(tracker.poisson_state(), 1);

  // ...a third tips the ring to 3/4 disagreeing and flips the state.
  tracker.on_report(fake_report(t += 30.0, 0.5, false, false), lines);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "TELNET arrivals no longer Poisson (Appendix A fails 3/4 windows)");
  EXPECT_EQ(tracker.poisson_state(), -1);
}

TEST(DriftTracker, StillLinesRestateTheCurrentVerdictPeriodically) {
  monitor::DriftConfig cfg;
  cfg.verdict_window = 2;
  cfg.flip_count = 2;
  cfg.confirm_every = 3;
  monitor::DriftTracker tracker("SMTP", cfg);
  std::vector<std::string> lines;

  double t = 100.0;
  std::size_t still = 0;
  for (int i = 0; i < 9; ++i) {
    lines.clear();
    tracker.on_report(fake_report(t += 30.0, 0.5, false, true), lines);
    for (const std::string& line : lines)
      if (line.find("still Poisson") != std::string::npos) ++still;
  }
  EXPECT_EQ(still, 2u);  // after reports 5 and 8 (announce at 2 resets)
}

TEST(DriftTracker, HurstDriftAnnouncesOnceAndRebases) {
  monitor::DriftConfig cfg;
  cfg.hurst_lookback = 60.0;
  cfg.hurst_threshold = 0.1;
  monitor::DriftTracker tracker("FTPDATA", cfg);
  std::vector<std::string> lines;

  // Reports without an Appendix-A verdict: only the H tracker runs.
  auto h_report = [](double t1, double h, bool warm) {
    stream::WindowReport r = fake_report(t1, h, warm, true);
    r.poisson.reset();
    return r;
  };

  // Flat H: lookback fills, nothing announced.
  double t = 1000.0;
  for (int i = 0; i < 5; ++i) {
    tracker.on_report(h_report(t += 30.0, 0.71, true), lines);
  }
  EXPECT_TRUE(lines.empty());

  // Jump past the threshold: exactly one announcement...
  tracker.on_report(h_report(t += 30.0, 0.83, true), lines);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("FTPDATA H drifted 0.71 -> 0.83"),
            std::string::npos);

  // ...and the level shift does not re-announce while the old value
  // ages out — the tracker re-based at the new level.
  lines.clear();
  for (int i = 0; i < 5; ++i)
    tracker.on_report(h_report(t += 30.0, 0.83, true), lines);
  EXPECT_TRUE(lines.empty());

  // Cold (whittle_warm == false) fits never feed the tracker.
  tracker.on_report(h_report(t += 30.0, 2.0, false), lines);
  EXPECT_TRUE(lines.empty());
}

// --- CLI strictness ------------------------------------------------------

bool parse(std::vector<std::string> argv_strs, monitor::MonitorCli& cli,
           std::string& err) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("wantraffic_monitor"));
  for (std::string& s : argv_strs) argv.push_back(s.data());
  return monitor::parse_monitor_cli(static_cast<int>(argv.size()),
                                    argv.data(), cli, err);
}

TEST(MonitorCli, ParsesTheDocumentedDefaultsAndOverrides) {
  monitor::MonitorCli cli;
  std::string err;
  ASSERT_TRUE(parse({"--replay", "x.pcap"}, cli, err)) << err;
  EXPECT_EQ(cli.replay_path, "x.pcap");
  EXPECT_TRUE(cli.follow_path.empty());
  EXPECT_EQ(cli.speed, 0.0);
  EXPECT_EQ(cli.options.window.bin, 1.0);
  EXPECT_EQ(cli.options.window.window, 3600.0);
  EXPECT_EQ(cli.options.window.slide, 300.0);
  EXPECT_EQ(cli.options.window.poisson_interval, 60.0);
  EXPECT_EQ(cli.options.mode, ingest::ParseMode::kStrict);
  ASSERT_EQ(cli.options.protocols.size(), 5u);
  EXPECT_EQ(cli.options.protocols[0], trace::Protocol::kTelnet);
  EXPECT_EQ(cli.options.protocols[1], trace::Protocol::kFtpData);

  monitor::MonitorCli cli2;
  ASSERT_TRUE(parse({"--follow", "-", "--protocols", "WWW,NNTP", "--lenient",
                     "--bin", "0.5", "--window", "120", "--slide", "60",
                     "--poisson-interval", "12", "--stats-interval", "0"},
                    cli2, err))
      << err;
  EXPECT_EQ(cli2.follow_path, "-");
  EXPECT_EQ(cli2.options.mode, ingest::ParseMode::kLenient);
  ASSERT_EQ(cli2.options.protocols.size(), 2u);
  EXPECT_EQ(cli2.options.protocols[0], trace::Protocol::kWww);
  EXPECT_EQ(cli2.options.window.slide, 60.0);
  EXPECT_EQ(cli2.options.stats_interval, 0.0);
}

TEST(MonitorCli, RejectsContradictionsUnknownsAndBadNumbers) {
  monitor::MonitorCli cli;
  std::string err;

  // A live tail cannot be paced.
  EXPECT_FALSE(parse({"--follow", "a.pcap", "--speed", "2"}, cli, err));
  EXPECT_NE(err.find("mutually exclusive"), std::string::npos);

  // Exactly one source.
  EXPECT_FALSE(parse({"--follow", "a.pcap", "--replay", "b.pcap"}, cli, err));
  EXPECT_FALSE(parse({}, cli, err));
  EXPECT_NE(err.find("required"), std::string::npos);

  // Strict unknown-flag and numeric handling, like every other tool.
  EXPECT_FALSE(parse({"--replay", "a.pcap", "--sped", "2"}, cli, err));
  EXPECT_NE(err.find("unknown flag"), std::string::npos);
  EXPECT_FALSE(parse({"--replay", "a.pcap", "--bin", "fast"}, cli, err));
  EXPECT_FALSE(parse({"--replay", "a.pcap", "--chunk", "0"}, cli, err));
  EXPECT_FALSE(parse({"--replay", "a.pcap", "--speed", "-1"}, cli, err));
  EXPECT_FALSE(parse({"--replay", "a.pcap", "stray"}, cli, err));
  EXPECT_NE(err.find("positional"), std::string::npos);

  // Bad geometry and bad protocol names fail at the CLI, not at the
  // first report.
  EXPECT_FALSE(parse({"--replay", "a.pcap", "--slide", "7"}, cli, err));
  EXPECT_FALSE(
      parse({"--replay", "a.pcap", "--protocols", "TELNET,BOGUS"}, cli, err));
  EXPECT_NE(err.find("BOGUS"), std::string::npos);
}

// --- mux guards ----------------------------------------------------------

TEST(EngineMux, RejectsPreFilteredOptions) {
  stream::WindowedOptions opt = test_geometry();
  opt.protocol = trace::Protocol::kTelnet;
  EXPECT_THROW(monitor::EngineMux(opt, {}, 0.0), std::invalid_argument);
}

}  // namespace
