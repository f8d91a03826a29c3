// wan_perfbench — the workload binary of the repository benchmark.
//
// Each subcommand is one process and prints one JSON line on stdout;
// run.py orchestrates them and prints the benchmark's result.
//
//   wan_perfbench info
//       Build provenance: compiler, build type, par thread count.
//
//   wan_perfbench setup --workload W --seed S --size full|smoke --out PATH
//       Builds the workload's input for a seed and times it. The capture
//       workloads synthesize a packet trace and pcap-encode it to PATH;
//       conn_week synthesizes its connection trace (and writes nothing:
//       its job synthesizes the trace again as its first stage). Prints
//       the input digest and record count.
//
//   wan_perfbench job --workload W --seed S --size full|smoke --input PATH
//                     --mode e2e|composed|traced
//                     [--expect-records N] [--expect-input DIGEST]
//       Runs one job in this fresh process, so the FFT plan and fGn
//       eigenvalue caches start cold and peak RSS counts the job alone,
//       as for a CLI invocation. Prints wall and CPU time, the process's
//       peak RSS, the output digest and the output checks.
//         e2e      the user path, through the entry points the tools call;
//         composed the same module calls composed here, untraced (for
//                  the monitor, whose report writer is private to the
//                  daemon, this differs from e2e);
//         traced   composed, with a span around every call into a module.
//
// Workloads (the full sizes; --size smoke shrinks them to seconds):
//   pcap_coarse     wantraffic_analyze pkt --ingest-format pcap --stream
//                   --bin 1 on a 2 h capture at 7x LBL volume
//   pcap_fine       the same with --filtered --bin 0.001 on a 2 h capture
//   monitor_replay  wantraffic_monitor --replay --speed 0 --sweep-levels 1
//                   on a 4 h capture (window 3600 s, slide 300 s)
//   conn_week       wantraffic_synth conn --days 7 then wantraffic_analyze
//                   conn --deperiodic, composed in memory
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/poisson_report.hpp"
#include "src/ingest/ingest.hpp"
#include "src/ingest/pcap_writer.hpp"
#include "src/monitor/daemon.hpp"
#include "src/par/parallel.hpp"
#include "src/selfsim/hurst_report.hpp"
#include "src/stats/tail_fit.hpp"
#include "src/stats/variance_time.hpp"
#include "src/stream/pipeline.hpp"
#include "src/synth/stream_synth.hpp"
#include "src/synth/synthesizer.hpp"
#include "src/trace/burst.hpp"
#include "src/trace/periodic.hpp"

using namespace wan;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Workloads -----------------------------------------------------------

struct Workload {
  std::string name;
  bool capture = true;     ///< pcap input (else conn_week)
  double hours = 0.0;      ///< capture length
  double volume = 1.0;     ///< PacketDatasetConfig::volume_scale
  double bin = 1.0;        ///< count-process bin, seconds
  bool filtered = false;   ///< Section-IV filters (--filtered)
  bool monitor = false;    ///< replay through the monitor daemon
  double days = 0.0;       ///< conn_week trace length
};

Workload workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "pcap_coarse") {
    w.hours = smoke ? 0.5 : 2.0;
    w.volume = smoke ? 1.0 : 7.0;
  } else if (name == "pcap_fine") {
    w.hours = smoke ? 0.25 : 2.0;
    w.bin = 0.001;
    w.filtered = true;
  } else if (name == "monitor_replay") {
    w.hours = smoke ? 1.25 : 4.0;
    w.monitor = true;
  } else if (name == "conn_week") {
    w.capture = false;
    w.days = smoke ? 0.5 : 7.0;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return w;
}

synth::PacketDatasetConfig capture_config(const Workload& w,
                                          std::uint64_t seed) {
  synth::PacketDatasetConfig cfg =
      synth::lbl_pkt_preset("BENCH", /*tcp_only=*/true, seed);
  cfg.hours = w.hours;
  cfg.volume_scale = w.volume;
  return cfg;
}

synth::ConnDatasetConfig conn_config(const Workload& w, std::uint64_t seed) {
  return synth::lbl_conn_preset("CLI", w.days, seed);
}

// --- Digests -------------------------------------------------------------

/// FNV-1a, 64-bit. Bytes one at a time for text; whole files as 64-bit
/// little-endian words, which is eight times faster on captures.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kPrime;
  }
  void text(const std::string& s) { bytes(s.data(), s.size()); }
  void word(std::uint64_t v) { h = (h ^ v) * kPrime; }
  void real(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    word(bits);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string file_digest(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  Digest d;
  std::vector<char> buf(1 << 20);
  while (is) {
    is.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto n = static_cast<std::size_t>(is.gcount());
    const std::size_t words = n / 8;
    for (std::size_t i = 0; i < words; ++i) {
      std::uint64_t w = 0;
      std::memcpy(&w, buf.data() + 8 * i, 8);
      d.word(w);
    }
    d.bytes(buf.data() + 8 * words, n - 8 * words);
  }
  return d.hex();
}

std::string conn_digest(const trace::ConnTrace& tr) {
  Digest d;
  for (const trace::ConnRecord& c : tr.records()) {
    d.real(c.start);
    d.real(c.duration);
    d.word((static_cast<std::uint64_t>(c.src_host) << 32) | c.dst_host);
    d.word(c.bytes_orig);
    d.word(c.bytes_resp);
    d.word(c.session_id ^ (static_cast<std::uint64_t>(c.protocol) << 56));
  }
  return d.hex();
}

// --- Tracing -------------------------------------------------------------

/// In-memory span recorder: name, start, end (seconds since the tracer
/// was made) and parent span index. A disabled tracer runs the wrapped
/// call and reads no clock.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }

  template <typename F>
  void span(const char* name, F&& f) {
    if (!on_) {
      f();
      return;
    }
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    f();
    stack_.pop_back();
    spans_[id].end = now();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const { return seconds_since(origin_); }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- Job output ----------------------------------------------------------

long status_kb(const char* key) {
  std::ifstream is("/proc/self/status");
  const std::size_t len = std::strlen(key);
  for (std::string line; std::getline(is, line);)
    if (line.compare(0, len, key) == 0) return std::atol(line.c_str() + len);
  return 0;
}

/// User + system seconds of every thread of this process.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

struct JobOut {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  std::uint64_t records = 0;  ///< packets ingested, or connections tested
  std::string output;         ///< the job's report bytes
  std::string input_digest;   ///< conn_week: the synthesized trace
  std::string drift_digest;   ///< monitor: its "# " drift lines
  std::uint64_t reports = 0;  ///< monitor: window reports emitted
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, double>> counts;
  /// Wall and CPU time of work outside the job proper.
  double excluded_s = 0.0;
  double excluded_cpu_s = 0.0;
  /// Layer calls made again after the job, for their share (traced).
  std::vector<std::pair<std::string, double>> extra_s;

  /// Runs f outside the job's wall and CPU time; returns its wall seconds.
  template <typename F>
  double exclude(F&& f) {
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    f();
    const double wall = seconds_since(t0);
    excluded_s += wall;
    excluded_cpu_s += cpu_seconds() - cpu0;
    return wall;
  }
};

// --- Capture jobs: wantraffic_analyze pkt --stream ----------------------

/// Forwards a capture source, one "ingest.next" span per chunk, sampling
/// the flow table's occupancy after each chunk.
class TracedColumns final : public stream::PacketColumnSource {
 public:
  TracedColumns(stream::PacketColumnSource& inner, Tracer& tracer,
                const ingest::FlowTable& table)
      : inner_(inner), tracer_(tracer), table_(table) {}

  const stream::StreamInfo& info() const override { return inner_.info(); }
  bool next(stream::PacketColumns& chunk) override {
    bool more = false;
    tracer_.span("ingest.next", [&] { more = inner_.next(chunk); });
    if (more) {
      ++chunks;
      packets += chunk.size();
      open_flows_max = std::max(open_flows_max, table_.open_flows());
    }
    return more;
  }
  void reset() override { inner_.reset(); }

  std::uint64_t chunks = 0;
  std::uint64_t packets = 0;  ///< over every pass
  std::size_t open_flows_max = 0;

 private:
  stream::PacketColumnSource& inner_;
  Tracer& tracer_;
  const ingest::FlowTable& table_;
};

JobOut pcap_job(const Workload& w, const std::string& path, Tracer& t) {
  stream::PipelineOptions opt;
  opt.bin = w.bin;
  if (w.filtered) {
    opt.orig_data_only = true;
    opt.remove_outliers = true;
  }
  JobOut out;
  std::unique_ptr<ingest::IngestColumnSource> src;
  t.span("ingest.open", [&] {
    src = ingest::open_packet_column_source(path, ingest::IngestFormat::kPcap,
                                            ingest::IngestOptions{});
  });
  const auto* pcap = dynamic_cast<const ingest::PcapColumnSource*>(src.get());
  if (pcap == nullptr)
    throw std::logic_error("pcap ingest did not take the zero-copy path");
  stream::PipelineResult result;
  if (t.on()) {
    TracedColumns traced(*src, t, pcap->flow_table());
    t.span("stream.analyze_columns",
           [&] { result = stream::analyze_columns(traced, opt); });
    out.counts.emplace_back("ingest.chunks", static_cast<double>(traced.chunks));
    out.counts.emplace_back("ingest.packets_all_passes",
                            static_cast<double>(traced.packets));
    out.counts.emplace_back("ingest.open_flows_max",
                            static_cast<double>(traced.open_flows_max));
  } else {
    result = stream::analyze_columns(*src, opt);
  }
  std::string text;
  t.span("stream.vt_csv", [&] { text = stream::vt_csv(result); });
  selfsim::HurstReport report;
  t.span("selfsim.hurst_report",
         [&] { report = selfsim::hurst_report(result.counts); });
  t.span("selfsim.render", [&] {
    char head[96];
    std::snprintf(head, sizeof head, "\ncount process: %zu bins of %.3g s\n",
                  result.counts.size(), result.bin);
    text += head;
    text += report.to_string();
  });
  out.output = std::move(text);

  const ingest::IngestStats& stats = src->stats();
  out.records = stats.records;
  out.checks.emplace_back("ledger_clean", stats.structural_errors() == 0);
  out.checks.emplace_back("battery_has_1000_packets", result.packets >= 1000);
  out.counts.emplace_back("ingest.ledger_errors",
                          static_cast<double>(stats.structural_errors()));
  out.counts.emplace_back("ingest.hosts",
                          static_cast<double>(pcap->flow_table().host_count()));
  out.counts.emplace_back("stream.kept", static_cast<double>(result.packets));
  out.counts.emplace_back("stream.bins",
                          static_cast<double>(result.counts.size()));
  if (t.on()) {
    // Variance-time again on the same counts, outside the job's time: its
    // share of the battery.
    stats::VarianceTimePlot vt;
    out.extra_s.emplace_back("stats.variance_time", out.exclude([&] {
      vt = stats::variance_time_plot(result.counts);
    }));
    out.counts.emplace_back("stats.vt_levels",
                            static_cast<double>(vt.points.size()));
  }
  return out;
}

// --- Monitor jobs: wantraffic_monitor --replay --speed 0 ----------------

monitor::MonitorCli monitor_cli(const std::string& path) {
  std::vector<std::string> args = {
      "wantraffic_monitor", "--replay",       path, "--speed", "0",
      "--sweep-levels",     "1",              "--stats-interval", "0"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  monitor::MonitorCli cli;
  std::string err;
  if (!monitor::parse_monitor_cli(static_cast<int>(args.size()), argv.data(),
                                  cli, err))
    throw std::invalid_argument("monitor options: " + err);
  return cli;
}

/// The daemon's drift lines: every "# " line before the shutdown block.
std::string drift_lines_of(const std::string& jsonl, std::uint64_t& reports) {
  std::string drift;
  std::istringstream is(jsonl);
  for (std::string line; std::getline(is, line);) {
    if (line.rfind("{", 0) == 0) ++reports;
    if (line.rfind("# shutdown:", 0) == 0) break;
    if (line.rfind("# ", 0) == 0) drift += line + '\n';
  }
  return drift;
}

JobOut monitor_e2e_job(const std::string& path) {
  JobOut out;
  monitor::MonitorCli cli = monitor_cli(path);
  std::ostringstream report;
  std::ostringstream diag;
  cli.options.report_out = &report;
  cli.options.diag_out = &diag;
  monitor::MonitorDaemon daemon(cli.options);
  monitor::ReplaySource source(cli.replay_path, cli.options.mode, cli.speed,
                               cli.options.flow, cli.options.chunk_size,
                               daemon.stop_flag());
  const int rc = daemon.run_replay(source);
  out.output = report.str();
  out.records = source.stats().records;
  out.drift_digest = [&] {
    Digest d;
    d.text(drift_lines_of(out.output, out.reports));
    return d.hex();
  }();
  out.checks.emplace_back("daemon_rc_0", rc == 0);
  out.checks.emplace_back("ledger_clean",
                          source.stats().structural_errors() == 0);
  out.checks.emplace_back("reports_emitted", out.reports > 0);
  out.counts.emplace_back("ingest.ledger_errors",
                          static_cast<double>(source.stats().structural_errors()));
  return out;
}

/// run_replay's loop, composed from ReplaySource, EngineMux and
/// DriftTracker in the daemon's order. The report-JSON writer is private
/// to the daemon, so this loop does not serialize reports.
JobOut monitor_composed_job(const std::string& path, Tracer& t) {
  JobOut out;
  const monitor::MonitorCli cli = monitor_cli(path);
  const monitor::MonitorOptions& o = cli.options;
  std::unique_ptr<monitor::ReplaySource> source;
  t.span("ingest.open", [&] {
    source = std::make_unique<monitor::ReplaySource>(
        cli.replay_path, o.mode, cli.speed, o.flow, o.chunk_size);
  });
  const stream::StreamInfo& info = source->info();
  std::unique_ptr<monitor::EngineMux> mux;
  std::vector<monitor::DriftTracker> trackers;
  t.span("monitor.init", [&] {
    mux = std::make_unique<monitor::EngineMux>(o.window, o.protocols,
                                               info.t_begin);
    for (std::size_t i = 0; i < mux->engines(); ++i)
      trackers.emplace_back(mux->engine_name(i), o.drift);
  });

  std::vector<monitor::MuxReport> scratch;
  std::vector<std::string> lines;
  std::string drift;
  const auto drain = [&] {
    scratch.clear();
    t.span("monitor.take", [&] { mux->take_reports(scratch); });
    for (const monitor::MuxReport& mr : scratch) {
      lines.clear();
      t.span("monitor.drift",
             [&] { trackers[mr.engine].on_report(mr.report, lines); });
      for (const std::string& line : lines) drift += "# " + line + '\n';
    }
    out.reports += scratch.size();
  };

  stream::PacketColumns chunk;
  std::uint64_t chunks = 0;
  for (;;) {
    bool more = false;
    t.span("ingest.next", [&] { more = source->next(chunk); });
    if (!more) break;
    ++chunks;
    if (!chunk.time.empty()) {
      t.span("monitor.push", [&] { mux->push(chunk); });
      drain();
    }
  }
  t.span("monitor.finish", [&] { mux->finish(info.t_end); });
  drain();

  out.records = source->stats().records;
  Digest d;
  d.text(drift);
  out.drift_digest = d.hex();
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < mux->engines(); ++i)
    events += mux->engine_events(i);
  out.checks.emplace_back("ledger_clean",
                          source->stats().structural_errors() == 0);
  out.checks.emplace_back("reports_emitted", out.reports > 0);
  out.counts.emplace_back("ingest.chunks", static_cast<double>(chunks));
  out.counts.emplace_back("ingest.ledger_errors",
                          static_cast<double>(source->stats().structural_errors()));
  out.counts.emplace_back("monitor.reports",
                          static_cast<double>(mux->reports_emitted()));
  out.counts.emplace_back("monitor.engine_events", static_cast<double>(events));
  return out;
}

// --- conn_week: synth conn, then analyze conn --deperiodic --------------

JobOut conn_job(const Workload& w, std::uint64_t seed, Tracer& t) {
  JobOut out;
  const synth::ConnDatasetConfig cfg = conn_config(w, seed);
  trace::ConnTrace tr;
  t.span("synth.conn", [&] { tr = synth::synthesize_conn_trace(cfg); });
  // The input pin, outside the job's time.
  out.exclude([&] { out.input_digest = conn_digest(tr); });
  out.records = tr.size();
  std::string text;
  t.span("trace.periodic", [&] {
    const std::size_t before = tr.size();
    tr = trace::remove_periodic_streams(tr);
    text += "removed " + std::to_string(before - tr.size()) +
            " periodic (weather-map-like) records\n";
  });
  std::vector<core::ProtocolVerdict> rows;
  t.span("core.poisson_report",
         [&] { rows = core::poisson_report(tr, core::PoissonReportConfig{}); });
  t.span("core.render", [&] { text += core::render_poisson_report(rows); });
  std::vector<trace::FtpBurst> bursts;
  std::vector<double> bytes;
  t.span("trace.bursts", [&] {
    bursts = trace::find_ftp_bursts(tr, 4.0);
    bytes = trace::burst_bytes(bursts);
  });
  if (bursts.size() >= 100) {
    t.span("stats.tail_fit", [&] {
      char line[160];
      std::snprintf(line, sizeof line,
                    "FTPDATA bursts: %zu; top 0.5%% of bursts hold %.1f%% "
                    "of bytes; tail Pareto beta %.2f\n",
                    bursts.size(),
                    100.0 * stats::mass_in_top_fraction(bytes, 0.005),
                    stats::ccdf_tail_fit(bytes, 0.05).beta);
      text += line;
    });
  }
  out.output = std::move(text);
  out.checks.emplace_back("verdict_rows", !rows.empty());
  out.checks.emplace_back("ftp_bursts_found", bursts.size() >= 100);
  out.counts.emplace_back("core.verdict_rows", static_cast<double>(rows.size()));
  out.counts.emplace_back("trace.kept_conns", static_cast<double>(tr.size()));
  out.counts.emplace_back("trace.bursts", static_cast<double>(bursts.size()));
  return out;
}

// --- JSON ------------------------------------------------------------------

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + '"';
}

// --- Subcommands -----------------------------------------------------------

struct Args {
  std::vector<std::pair<std::string, std::string>> kv;
  const std::string* get(const char* key) const {
    for (const auto& [k, v] : kv)
      if (k == key) return &v;
    return nullptr;
  }
  std::string need(const char* key) const {
    const std::string* v = get(key);
    if (v == nullptr) throw std::invalid_argument(std::string("missing ") + key);
    return *v;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i < argc; i += 2) {
    if (i + 1 >= argc || std::strncmp(argv[i], "--", 2) != 0)
      throw std::invalid_argument(std::string("bad argument ") + argv[i]);
    a.kv.emplace_back(argv[i], argv[i + 1]);
  }
  return a;
}

int cmd_info() {
  std::printf("{\"compiler\": %s, \"build_type\": %s, \"par_threads\": %zu, "
              "\"hardware_threads\": %u}\n",
              json_string("gcc " __VERSION__).c_str(),
              json_string(WAN_PERFBENCH_BUILD_TYPE).c_str(),
              par::thread_count(), std::thread::hardware_concurrency());
  return 0;
}

int cmd_setup(const Args& a) {
  const Workload w = workload(a.need("--workload"), a.need("--size") == "smoke");
  const std::uint64_t seed = std::stoull(a.need("--seed"));
  double synth_s = 0.0;
  double encode_s = 0.0;
  std::uint64_t records = 0;
  std::string digest;
  const auto t0 = Clock::now();
  if (w.capture) {
    const std::string out = a.need("--out");
    {
      synth::StreamingPacketSynthesizer src(capture_config(w, seed));
      synth_s += seconds_since(t0);
      auto t1 = Clock::now();
      ingest::PcapRecordEncoder encoder(out);
      std::vector<trace::PacketRecord> chunk;
      encode_s += seconds_since(t1);
      for (;;) {
        t1 = Clock::now();
        const bool more = src.next(chunk);
        synth_s += seconds_since(t1);
        if (!more) break;
        t1 = Clock::now();
        for (const trace::PacketRecord& r : chunk) encoder.add(r);
        records += chunk.size();
        encode_s += seconds_since(t1);
      }
      t1 = Clock::now();
      encoder.flush();
      encode_s += seconds_since(t1);
    }
    const double setup_s = seconds_since(t0);
    // Write the capture back now, so no dirty page cache is flushed to
    // disk while the jobs are timed.
    const int fd = ::open(out.c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0)
      throw std::runtime_error("cannot sync " + out);
    ::close(fd);
    digest = file_digest(out);
    std::printf("{\"setup_s\": %s, \"synth_s\": %s, \"encode_s\": %s, "
                "\"records\": %llu, \"input_digest\": \"%s\"}\n",
                json_number(setup_s).c_str(), json_number(synth_s).c_str(),
                json_number(encode_s).c_str(),
                static_cast<unsigned long long>(records), digest.c_str());
    return 0;
  }
  const trace::ConnTrace tr = synth::synthesize_conn_trace(conn_config(w, seed));
  const double setup_s = seconds_since(t0);
  std::printf("{\"setup_s\": %s, \"synth_s\": %s, \"encode_s\": 0, "
              "\"records\": %zu, \"input_digest\": \"%s\"}\n",
              json_number(setup_s).c_str(), json_number(setup_s).c_str(),
              tr.size(), conn_digest(tr).c_str());
  return 0;
}

int cmd_job(const Args& a) {
  const Workload w = workload(a.need("--workload"), a.need("--size") == "smoke");
  const std::uint64_t seed = std::stoull(a.need("--seed"));
  const std::string mode = a.need("--mode");
  if (mode != "e2e" && mode != "composed" && mode != "traced")
    throw std::invalid_argument("unknown mode " + mode);
  const std::string input = w.capture ? a.need("--input") : std::string();

  // Each job is a fresh process that runs nothing else, as a CLI call
  // is: the FFT plan and fGn eigenvalue caches start empty, and the
  // process's peak RSS is the job's (set-up ran in another process).
  Tracer tracer(mode == "traced");
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  JobOut out;
  if (!w.capture) {
    out = conn_job(w, seed, tracer);
  } else if (w.monitor) {
    out = mode == "e2e" ? monitor_e2e_job(input)
                        : monitor_composed_job(input, tracer);
  } else {
    out = pcap_job(w, input, tracer);
  }
  out.wall_s = seconds_since(t0) - out.excluded_s;
  out.cpu_s = cpu_seconds() - cpu0 - out.excluded_cpu_s;
  out.rss_mb = static_cast<double>(status_kb("VmHWM:")) / 1024.0;

  if (const std::string* n = a.get("--expect-records"))
    out.checks.emplace_back("records_equal_setup",
                            out.records == std::stoull(*n));
  if (const std::string* d = a.get("--expect-input"); d && !w.capture)
    out.checks.emplace_back("input_equals_setup", out.input_digest == *d);

  Digest od;
  od.text(out.output);
  std::string s = "{\"mode\": " + json_string(mode) +
                  ", \"wall_s\": " + json_number(out.wall_s) +
                  ", \"cpu_s\": " + json_number(out.cpu_s) +
                  ", \"rss_mb\": " + json_number(out.rss_mb) +
                  ", \"records\": " + std::to_string(out.records) +
                  ", \"output_digest\": " + json_string(od.hex());
  if (!out.drift_digest.empty())
    s += ", \"drift_digest\": " + json_string(out.drift_digest) +
         ", \"reports\": " + std::to_string(out.reports);
  s += ", \"checks\": {";
  for (std::size_t i = 0; i < out.checks.size(); ++i)
    s += (i ? ", " : "") + json_string(out.checks[i].first) + ": " +
         (out.checks[i].second ? "true" : "false");
  s += "}, \"counts\": {";
  for (std::size_t i = 0; i < out.counts.size(); ++i)
    s += (i ? ", " : "") + json_string(out.counts[i].first) + ": " +
         json_number(out.counts[i].second);
  s += "}, \"extra_s\": {";
  for (std::size_t i = 0; i < out.extra_s.size(); ++i)
    s += (i ? ", " : "") + json_string(out.extra_s[i].first) + ": " +
         json_number(out.extra_s[i].second);
  s += "}, \"spans\": [";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i)
    s += (i ? ", [" : "[") + json_string(spans[i].name) + ", " +
         json_number(spans[i].start) + ", " + json_number(spans[i].end) +
         ", " + std::to_string(spans[i].parent) + "]";
  s += "]}\n";
  std::fputs(s.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: wan_perfbench info | setup ARGS | job ARGS "
                 "(see the file comment)\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    if (cmd == "info") return cmd_info();
    if (cmd == "setup") return cmd_setup(parse_args(argc, argv, 2));
    if (cmd == "job") return cmd_job(parse_args(argc, argv, 2));
    std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wan_perfbench: %s\n", e.what());
    return 1;
  }
}
