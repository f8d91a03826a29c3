// bench_perf_ingest — the real-trace front door under load: every
// layer of the pcap ingest path, timed on its own and end to end.
//
// The bench writes its own synthetic captures (raw-IP pcap and lbl-pkt
// ASCII, a fixed population of interleaved TCP flows, deterministic) and
// emits six rows into BENCH_perf.json:
//
//   * ingest_pcap_stream        — MB/s + the bounded-RSS criterion:
//     peak RSS growth is set by chunk size and open-flow population, not
//     by capture length (rss_bounded). It drains the column source
//     `wantraffic_ingest pkt` opens, range prescan included.
//   * pcap_reader_mmap          — raw record drain through
//     MmapPcapReader::next_batch.
//   * flow_table_flat           — the FlowTable fold on pre-decoded
//     packets.
//   * ingest_e2e                — THE GATE: pcap -> count-process
//     analysis through the tools' path (open_packet_column_source +
//     analyze_columns), min of 9 process-CPU reps, each after a rep of
//     bench::calibration_leg(). Every run fails when the result's digest
//     differs from the pinned one; a full-size run also fails when its
//     time, as a ratio to the calibration leg's, is more than 10% above
//     the latest earlier row's of the same op, CPU model and build type
//     in the target JSON (Harness::bound_by_previous; with no such row,
//     it records the first one).
//   * ingest_e2e_filtered       — the same path with the --filtered
//     options (originator data, bulk outliers removed) on a capture
//     whose every 4th flow types slowly, min of 9 process-CPU reps; it
//     prints the packets and connections the outlier stage keeps and
//     drops, and every run fails when the result's digest differs from
//     the pinned one or the stage keeps none or all of the connections.
//     It has no bound against an earlier row.
//   * ingest_lbl_pkt_ascii      — ITA ASCII parse throughput on the
//     std::from_chars tokenizer.
//
// All rows are single-threaded. Exit is nonzero when any check, the RSS
// bound or the gate fails.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_harness.hpp"
#include "src/ingest/ingest.hpp"
#include "src/ingest/sources.hpp"
#include "src/stream/pipeline.hpp"
#include "src/trace/records.hpp"

using namespace wan;

namespace {

long read_status_kb(const std::string& field) {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(field, 0) == 0)
      return std::atol(line.c_str() + field.size() + 1);
  }
  return 0;
}

bool reset_peak_rss() {
  std::ofstream os("/proc/self/clear_refs");
  if (!os) return false;
  os << "5";
  return os.good();
}

void put16le(std::vector<unsigned char>& b, std::uint16_t v) {
  b.push_back(static_cast<unsigned char>(v & 0xFF));
  b.push_back(static_cast<unsigned char>(v >> 8));
}
void put32le(std::vector<unsigned char>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    b.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xFF));
}
void put16be(std::vector<unsigned char>& b, std::uint16_t v) {
  b.push_back(static_cast<unsigned char>(v >> 8));
  b.push_back(static_cast<unsigned char>(v & 0xFF));
}
void put32be(std::vector<unsigned char>& b, std::uint32_t v) {
  for (int i = 3; i >= 0; --i)
    b.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xFF));
}

/// Writes a raw-IP pcap of `packets` TCP packets round-robined over a
/// fixed population of `flows` flows (so open-flow state is identical
/// at every capture size). Snap length cuts each record after the
/// transport header; payload bytes ride in the IP total-length field,
/// exactly how snaplen-limited real captures carry them. Every flow is
/// a bulk transfer (512 bytes a packet) unless `interactive` > 0: then
/// every interactive-th flow types, one byte on every 8th of its
/// packets and pure acks between, slow enough to stay below the
/// bulk-outlier rule.
std::uint64_t write_capture(const std::string& path, std::size_t packets,
                            std::size_t flows, std::size_t interactive = 0) {
  // Streamed to disk record by record — materializing the capture
  // in memory would leave tens of MB of freed-but-resident heap that
  // masks the RSS growth the ingest phases are here to measure.
  std::ofstream os(path, std::ios::binary);
  std::uint64_t total = 0;
  std::vector<unsigned char> out;
  const auto flush_buf = [&] {
    os.write(reinterpret_cast<const char*>(out.data()),
             static_cast<std::streamsize>(out.size()));
    total += out.size();
    out.clear();
  };
  put32le(out, 0xA1B2C3D4u);  // usec magic, little-endian
  put16le(out, 2);            // version 2.4
  put16le(out, 4);
  put32le(out, 0);      // thiszone
  put32le(out, 0);      // sigfigs
  put32le(out, 65535);  // snaplen
  put32le(out, 101);    // LINKTYPE_RAW (bare IPv4)
  flush_buf();

  for (std::size_t p = 0; p < packets; ++p) {
    const std::size_t f = p % flows;
    const std::size_t ordinal = p / flows;  // packet index within flow
    const bool syn = ordinal == 0;
    const bool fin = p + flows >= packets;  // the flow's last packet
    const bool typing = interactive > 0 && f % interactive == interactive - 1;
    const std::uint16_t data = typing ? (ordinal % 8 == 7 ? 1 : 0) : 512;
    const std::uint16_t payload = syn || fin ? 0 : data;

    // Record header (file endianness): 100 us between packets.
    const std::uint64_t us = static_cast<std::uint64_t>(p) * 100;
    put32le(out, static_cast<std::uint32_t>(us / 1000000));
    put32le(out, static_cast<std::uint32_t>(us % 1000000));
    put32le(out, 40);                          // incl_len: snap after TCP
    put32le(out, 40u + payload);               // orig_len

    // IPv4 header (network order).
    out.push_back(0x45);  // version 4, IHL 5
    out.push_back(0);     // TOS
    put16be(out, static_cast<std::uint16_t>(40 + payload));  // total_len
    put16be(out, static_cast<std::uint16_t>(p & 0xFFFF));    // id
    put16be(out, 0);   // no fragmentation
    out.push_back(64);  // TTL
    out.push_back(6);   // TCP
    put16be(out, 0);    // checksum (unchecked)
    put32be(out, 0x0A000000u + static_cast<std::uint32_t>(f));  // 10.0.f
    put32be(out, 0x0A800000u + static_cast<std::uint32_t>(f));  // 10.128.f

    // TCP header.
    put16be(out, static_cast<std::uint16_t>(1024 + f % 50000));  // sport
    put16be(out, f % 2 == 0 ? 80 : 23);  // WWW / TELNET mix
    put32be(out, static_cast<std::uint32_t>(ordinal));  // seq
    put32be(out, 0);                                    // ack
    out.push_back(5 << 4);                              // doff
    out.push_back(static_cast<unsigned char>(syn   ? 0x02
                                             : fin ? 0x11
                                                   : 0x18));  // flags
    put16be(out, 65535);  // window
    put16be(out, 0);      // checksum
    put16be(out, 0);      // urgent
    flush_buf();
  }
  return total;
}

/// Writes the same flow mix as lbl-pkt ASCII lines (the sanitize-tcp
/// format): timestamp src dst sport dport data_bytes. Feeds the
/// std::from_chars parse-throughput row.
std::uint64_t write_lbl_pkt(const std::string& path, std::size_t packets,
                            std::size_t flows) {
  std::ofstream os(path, std::ios::binary);
  std::uint64_t total = 0;
  char line[96];
  for (std::size_t p = 0; p < packets; ++p) {
    const std::size_t f = p % flows;
    const int n = std::snprintf(
        line, sizeof line, "%.6f %zu %zu %zu %u %u\n",
        static_cast<double>(p) * 1e-4, 1 + f, 1000 + f, 1024 + f % 50000,
        f % 2 == 0 ? 80u : 23u, p / flows == 0 ? 0u : 512u);
    os.write(line, n);
    total += static_cast<std::uint64_t>(n);
  }
  return total;
}

/// FNV-1a over 64-bit words: order-sensitive output checksums, so the
/// checks catch any divergence, not just count drift.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  }
  void mix(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
  void mix(const trace::PacketRecord& r) {
    mix(r.time);
    mix((static_cast<std::uint64_t>(r.conn_id) << 32) |
        (static_cast<std::uint64_t>(r.protocol) << 16) |
        (static_cast<std::uint64_t>(r.from_originator) << 15) |
        r.payload_bytes);
  }
  void mix(const trace::ConnRecord& c) {
    mix(c.start);
    mix(c.duration);
    mix((static_cast<std::uint64_t>(c.src_host) << 32) | c.dst_host);
    mix(c.bytes_orig);
    mix(c.bytes_resp);
    mix(c.session_id ^ static_cast<std::uint64_t>(c.protocol));
  }
};

struct DrainSum {
  std::uint64_t packets = 0;
  std::uint64_t checksum = 0;
};

/// Raw record drain through the mmap reader's batch interface.
DrainSum drain_mmap(const std::string& path) {
  ingest::MmapPcapReader reader(path, ingest::ParseMode::kStrict);
  std::vector<ingest::RawPacket> batch;
  Fnv f;
  DrainSum s;
  while (reader.next_batch(batch, 4096) > 0) {
    for (const ingest::RawPacket& pkt : batch) {
      ++s.packets;
      f.mix(pkt.time);
      f.mix((static_cast<std::uint64_t>(pkt.src_ip) << 32) | pkt.dst_ip);
      f.mix((static_cast<std::uint64_t>(pkt.src_port) << 48) |
            (static_cast<std::uint64_t>(pkt.dst_port) << 32) |
            (static_cast<std::uint64_t>(pkt.tcp_flags) << 24) |
            pkt.payload_bytes);
    }
    batch.clear();
  }
  s.checksum = f.h;
  return s;
}

/// Folds pre-decoded packets through the flow table and checksums every
/// emitted PacketRecord and closed ConnRecord — the table's complete
/// observable output.
DrainSum fold_table(const std::vector<ingest::RawPacket>& pkts) {
  ingest::FlowTable table;
  std::vector<trace::ConnRecord> conns;
  Fnv f;
  DrainSum s;
  for (const ingest::RawPacket& pkt : pkts) {
    f.mix(table.add(pkt));
    ++s.packets;
  }
  table.flush();
  table.take_closed(conns);
  for (const trace::ConnRecord& c : conns) f.mix(c);
  f.mix(static_cast<std::uint64_t>(conns.size()));
  s.checksum = f.h;
  return s;
}

/// Rows the Section-IV stages `opt` configures emit from a capture,
/// and the distinct connections among them.
struct ConnCount {
  std::uint64_t packets = 0;
  std::size_t conns = 0;
};

ConnCount count_conns(const std::string& path,
                      const stream::PipelineOptions& opt) {
  const auto src = ingest::open_packet_column_source(
      path, ingest::IngestFormat::kPcap, ingest::IngestOptions{});
  stream::ColumnFilterStack stages(*src, opt);
  std::unordered_set<std::uint32_t> conns;
  ConnCount c;
  stream::PacketColumns chunk;
  while (stages.next(chunk)) {
    c.packets += chunk.size();
    conns.insert(chunk.conn_id.begin(), chunk.conn_id.end());
  }
  c.conns = conns.size();
  return c;
}

struct IngestRun {
  double ms = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t structural_errors = 0;
  long peak_growth_kb = 0;
};

IngestRun run_ingest(const std::string& path) {
  const long before = read_status_kb("VmRSS:");
  reset_peak_rss();
  IngestRun r;
  r.ms = bench::min_time_ms(
      [&] {
        ingest::IngestOptions opt;  // strict, default chunk size
        const auto src = ingest::open_packet_column_source(
            path, ingest::IngestFormat::kPcap, opt);
        src->info();  // the range first, as `wantraffic_ingest pkt` asks
        std::uint64_t n = 0;
        stream::PacketColumns chunk;
        while (src->next(chunk)) n += chunk.size();
        r.packets = n;
        r.structural_errors = src->stats().structural_errors();
      },
      /*reps=*/1);
  r.peak_growth_kb = read_status_kb("VmHWM:") - before;
  return r;
}

/// One single-threaded row: serial_ms is the baseline and parallel_ms
/// the measured path (a single-leg row passes its one time as both),
/// identity from the caller's check.
bench::BenchResult make_row(const std::string& op, double items,
                            const std::string& unit, double baseline_ms,
                            double ms, bool identical) {
  bench::BenchResult r;
  r.op = op;
  r.threads = 1;
  r.items = items;
  r.unit = unit;
  r.serial_ms = baseline_ms;
  r.parallel_ms = ms;
  r.speedup = ms > 0.0 ? baseline_ms / ms : 1.0;
  const double best = ms < baseline_ms ? ms : baseline_ms;
  r.throughput = best > 0.0 ? items / (best / 1000.0) : 0.0;
  r.identical = identical;
  return r;
}

/// What an analysis returns, as one word: the packet count, every
/// count's bits and the vt_csv bytes.
std::uint64_t result_digest(const stream::PipelineResult& r) {
  Fnv f;
  f.mix(r.packets);
  f.mix(static_cast<std::uint64_t>(r.counts.size()));
  for (double c : r.counts) f.mix(c);
  for (char ch : stream::vt_csv(r))
    f.mix(static_cast<std::uint64_t>(static_cast<unsigned char>(ch)));
  return f.h;
}

/// result_digest of the pcap -> analysis run on each capture size (the
/// vt_csv header names the capture, so the digest holds for
/// bench_ingest_large.pcap only), taken where the tools' two-pass path,
/// the single-pass analysis and the original ifstream reader + node
/// table + row pipeline all gave it.
constexpr std::uint64_t kSmokeDigest = 0x046ef62be5c609f4ull;
constexpr std::uint64_t kFullDigest = 0x81db9b437dc595aeull;
/// The same for the --filtered options on bench_ingest_mixed.pcap,
/// taken where the columnar, row and batch analyses all gave it.
constexpr std::uint64_t kFilteredSmokeDigest = 0x54e55087e57ea1fdull;
constexpr std::uint64_t kFilteredFullDigest = 0xefa45c9539f27224ull;

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  bench::Harness harness(argc, argv);
  const char* tag = smoke ? "smoke" : "1m_pkts";
  const int reps = smoke ? 1 : 2;

  const std::size_t kFlows = 256;  // constant across sizes, by design
  const std::size_t small_n = smoke ? 5000 : 100000;
  const std::size_t large_n = smoke ? 50000 : 1000000;
  const std::string small_path = "bench_ingest_small.pcap";
  const std::string large_path = "bench_ingest_large.pcap";
  const std::string mixed_path = "bench_ingest_mixed.pcap";
  const std::string ascii_path = "bench_ingest_ascii.lbl";
  const std::uint64_t small_bytes = write_capture(small_path, small_n, kFlows);
  const std::uint64_t large_bytes = write_capture(large_path, large_n, kFlows);
  const double large_mb = static_cast<double>(large_bytes) / (1024.0 * 1024.0);

  // --- Row 1: streamed ingest MB/s + the bounded-RSS criterion.
  // Runs first, on a clean heap, before the A/B phases touch memory.
  const IngestRun small = run_ingest(small_path);
  const IngestRun large = run_ingest(large_path);

  const bool clean = small.packets == small_n && large.packets == large_n &&
                     small.structural_errors == 0 &&
                     large.structural_errors == 0;
  // The small run starts on a clean heap and pays for the chunk buffers
  // and the 256-flow table; a 10x-longer capture must fit in that same
  // footprint (plus allocator slack) because both are size-invariant —
  // the large run typically shows ~zero further growth.
  const bool rss_measured = small.peak_growth_kb > 0;
  const bool rss_bounded =
      rss_measured &&
      large.peak_growth_kb < 2 * small.peak_growth_kb + 16 * 1024;

  const double mb_per_s =
      large.ms > 0.0 ? large_mb / (large.ms / 1000.0) : 0.0;
  std::printf(
      "\npcap ingest: %.1f MB in %.1f ms (%.1f MB/s, %llu packets)\n"
      "peak RSS growth: %.1f MB capture %ld kB, %.1f MB capture %ld kB\n"
      "rss_bounded (peak set by chunk size + open flows, not capture "
      "length): %s\n\n",
      large_mb, large.ms, mb_per_s,
      static_cast<unsigned long long>(large.packets),
      static_cast<double>(small_bytes) / (1024.0 * 1024.0),
      small.peak_growth_kb, large_mb, large.peak_growth_kb,
      rss_bounded ? "PASS" : "FAIL");

  {
    bench::BenchResult r =
        make_row(std::string("ingest_pcap_stream/") + tag, large_mb, "MB",
                 large.ms, large.ms, clean);
    r.extra = {
        {"small_peak_rss_kb", std::to_string(small.peak_growth_kb)},
        {"large_peak_rss_kb", std::to_string(large.peak_growth_kb)},
        {"rss_bounded", rss_bounded ? "true" : "false"},
    };
    harness.add(r);
  }

  // --- Row 2: raw record drain through the mmap reader.
  DrainSum rd;
  const double rd_ms =
      bench::min_time_ms([&] { rd = drain_mmap(large_path); }, reps);
  const bool rd_ok = rd.packets == large_n;
  harness.add(make_row(std::string("pcap_reader_mmap/") + tag, large_mb,
                       "MB", rd_ms, rd_ms, rd_ok));

  // --- Row 3: the flow table fold on pre-decoded packets, so only the
  // table is timed.
  std::vector<ingest::RawPacket> decoded;
  decoded.reserve(large_n);
  {
    ingest::MmapPcapReader reader(large_path, ingest::ParseMode::kStrict);
    reader.next_batch(decoded, large_n + 1);
  }
  DrainSum ft;
  const double ft_ms =
      bench::min_time_ms([&] { ft = fold_table(decoded); }, reps);
  const bool ft_ok = ft.packets == large_n;
  harness.add(make_row(std::string("flow_table_flat/") + tag,
                       static_cast<double>(large_n), "pkts", ft_ms, ft_ms,
                       ft_ok));
  decoded.clear();
  decoded.shrink_to_fit();

  // --- Row 4: THE GATE — pcap -> count-process analysis end to end,
  // through the path the tools run: open_packet_column_source (the
  // prescan, then the mmap decode folded through the flow table into
  // columns) and analyze_columns. The closure includes opening the
  // source. The run is single-threaded, so it is timed on the
  // process-CPU clock: on a shared host, wall time charges hypervisor
  // steal to whatever was running when it hit. The calibration leg,
  // timed between its reps, carries how fast this process ran.
  stream::PipelineOptions popt;  // 0.1 s bins over the 100 us spacing
  stream::PipelineResult e2e;
  constexpr int kE2eReps = 9;
  const bench::CalibratedMs e2e_ms = bench::min_cpu_time_calibrated_ms(
      [&] {
        const auto src = ingest::open_packet_column_source(
            large_path, ingest::IngestFormat::kPcap, ingest::IngestOptions{});
        e2e = stream::analyze_columns(*src, popt);
      },
      kE2eReps);
  const bool e2e_ok =
      e2e.packets == large_n &&
      result_digest(e2e) == (smoke ? kSmokeDigest : kFullDigest);
  // A full run's time, as a ratio to the calibration leg's, may be at
  // most 10% above the latest earlier row's of its op on the same CPU
  // model and build type. A smoke capture takes milliseconds, so its
  // time is noise and only the digest counts.
  bool gate_ok = false;
  {
    bench::BenchResult r =
        make_row(std::string("ingest_e2e/") + tag, large_mb, "MB", e2e_ms.ms,
                 e2e_ms.ms, e2e_ok);
    r.repeats = kE2eReps;
    const bool in_bound = harness.bound_by_previous(r, e2e_ms.calib_ms);
    gate_ok = e2e_ok && (smoke || in_bound);
    r.extra.emplace_back("gate_ok", gate_ok ? "true" : "false");
    harness.add(r);
  }
  std::printf("e2e gate: digest %s -> %s\n\n", e2e_ok ? "ok" : "WRONG",
              gate_ok ? "PASS" : "FAIL");

  // --- Row 5: the same path with `wantraffic_analyze --filtered`'s
  // options (originator data, then the bulk-outlier stage), on its own
  // capture: the same flows, but every 4th one types slowly, so the
  // stage keeps those connections and drops the bulk ones. Every run
  // fails when its digest differs from the pinned one or the stage
  // keeps none or all of the connections; it has no bound against an
  // earlier row.
  write_capture(mixed_path, large_n, kFlows, /*interactive=*/4);
  stream::PipelineOptions fopt = popt;
  fopt.orig_data_only = true;
  fopt.remove_outliers = true;
  stream::PipelineResult filtered;
  const double filtered_ms = bench::min_cpu_time_ms(
      [&] {
        const auto src = ingest::open_packet_column_source(
            mixed_path, ingest::IngestFormat::kPcap, ingest::IngestOptions{});
        filtered = stream::analyze_columns(*src, fopt);
      },
      kE2eReps);
  const std::uint64_t filtered_digest = result_digest(filtered);
  stream::PipelineOptions orig_data = popt;
  orig_data.orig_data_only = true;
  const ConnCount offered = count_conns(mixed_path, orig_data);
  const ConnCount kept = count_conns(mixed_path, fopt);
  const bool filtered_ok =
      filtered_digest ==
          (smoke ? kFilteredSmokeDigest : kFilteredFullDigest) &&
      kept.packets == filtered.packets && kept.conns > 0 &&
      kept.conns < offered.conns;
  {
    bench::BenchResult r =
        make_row(std::string("ingest_e2e_filtered/") + tag, large_mb, "MB",
                 filtered_ms, filtered_ms, filtered_ok);
    r.repeats = kE2eReps;
    r.extra = {
        {"clock", "\"process_cpu\""},
        {"kept_packets", std::to_string(kept.packets)},
        {"dropped_packets", std::to_string(offered.packets - kept.packets)},
        {"kept_conns", std::to_string(kept.conns)},
        {"dropped_conns", std::to_string(offered.conns - kept.conns)},
    };
    harness.add(r);
  }
  std::printf(
      "filtered e2e: %.1f ms; of the originator-data rows, %llu packets "
      "kept and %llu dropped, %zu connections kept and %zu dropped; "
      "digest %016llx %s\n\n",
      filtered_ms, static_cast<unsigned long long>(kept.packets),
      static_cast<unsigned long long>(offered.packets - kept.packets),
      kept.conns, offered.conns - kept.conns,
      static_cast<unsigned long long>(filtered_digest),
      filtered_ok ? "ok" : "WRONG");

  // --- Row 6: ITA ASCII parse throughput (std::from_chars tokenizer).
  const std::uint64_t ascii_bytes =
      write_lbl_pkt(ascii_path, large_n, kFlows);
  const double ascii_mb = static_cast<double>(ascii_bytes) / (1024.0 * 1024.0);
  std::uint64_t ascii_packets = 0;
  const double ascii_ms = bench::min_time_ms(
      [&] {
        ingest::LblPktReader reader(ascii_path, ingest::ParseMode::kStrict);
        ingest::RawPacket pkt;
        std::uint64_t n = 0;
        while (reader.next(pkt)) ++n;
        ascii_packets = n;
      },
      reps);
  const bool ascii_ok = ascii_packets == large_n;
  harness.add(make_row(std::string("ingest_lbl_pkt_ascii/") + tag,
                       ascii_mb, "MB", ascii_ms, ascii_ms, ascii_ok));

  std::remove(small_path.c_str());
  std::remove(large_path.c_str());
  std::remove(mixed_path.c_str());
  std::remove(ascii_path.c_str());

  const bool all_identical =
      clean && rd_ok && ft_ok && filtered_ok && ascii_ok;
  return all_identical && rss_bounded && gate_ok ? 0 : 1;
}
