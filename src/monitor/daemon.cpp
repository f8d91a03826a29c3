#include "src/monitor/daemon.hpp"

#include <signal.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "src/monitor/stop_flag.hpp"
#include "src/stream/columnar.hpp"
#include "tools/arg_parse.hpp"

namespace wan::monitor {

namespace {
// Constant-initialized at namespace scope: safe to touch from a signal
// handler (no lazy-init guard on first use).
std::atomic<bool> g_stop{false};
}  // namespace

std::atomic<bool>& global_stop() noexcept { return g_stop; }

namespace {

void handle_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // NaN/inf are not JSON; null keeps the line valid
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

/// One report as a JSON line. Capture-derived fields only — nothing
/// here may depend on wall time, or --speed 0 reproducibility dies.
std::string report_json(const std::string& engine,
                        const stream::WindowReport& r) {
  std::string s;
  s.reserve(512);
  s += "{\"engine\":\"";
  s += engine;
  s += "\",\"t0\":";
  append_json_number(s, r.t0);
  s += ",\"t1\":";
  append_json_number(s, r.t1);
  s += ",\"packets\":";
  s += std::to_string(r.packets);
  s += ",\"mean_count\":";
  append_json_number(s, r.mean_count);
  s += ",\"var_count\":";
  append_json_number(s, r.var_count);
  s += ",\"mean_burst_bins\":";
  append_json_number(s, r.mean_burst_bins);
  s += ",\"mean_lull_bins\":";
  append_json_number(s, r.mean_lull_bins);
  s += ",\"vt_hurst\":";
  append_json_number(s, r.vt_hurst);
  s += ",\"whittle_hurst\":";
  append_json_number(s, r.whittle.hurst);
  s += ",\"whittle_stderr\":";
  append_json_number(s, r.whittle.stderr_hurst);
  s += ",\"whittle_warm\":";
  s += r.whittle_warm ? "true" : "false";
  if (!r.sweep_hurst.empty()) {
    s += ",\"sweep_hurst\":[";
    for (std::size_t i = 0; i < r.sweep_hurst.size(); ++i) {
      if (i != 0) s += ',';
      append_json_number(s, r.sweep_hurst[i]);
    }
    s += ']';
  }
  if (r.poisson) {
    const auto& p = *r.poisson;
    s += ",\"poisson\":{\"n_intervals\":";
    s += std::to_string(p.n_intervals);
    s += ",\"frac_pass_exponential\":";
    append_json_number(s, p.frac_pass_exponential);
    s += ",\"frac_pass_independence\":";
    append_json_number(s, p.frac_pass_independence);
    s += ",\"lag1_sign_bias\":";
    append_json_number(s, p.lag1_sign_bias);
    s += ",\"poisson\":";
    s += p.poisson ? "true" : "false";
    s += '}';
  }
  s += '}';
  return s;
}

long read_status_kb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      long kb = 0;
      std::sscanf(line.c_str() + std::string(key).size(), "%ld", &kb);
      return kb;
    }
  }
  return 0;
}

/// Wall-clock self-stats, diagnostic stream only.
class SelfStats {
 public:
  explicit SelfStats(double interval) : interval_(interval) {
    last_ = std::chrono::steady_clock::now();
  }

  void tick(std::ostream& diag, std::uint64_t records, std::uint64_t bytes,
            std::size_t open_flows, const EngineMux* mux, double t_hi) {
    if (interval_ <= 0.0) return;
    const auto now = std::chrono::steady_clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - last_).count();
    if (elapsed < interval_) return;
    const double rate = (double)(records - last_records_) / elapsed;
    diag << "[monitor] pkts=" << records << " rate=";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", rate);
    diag << buf << "/s bytes=" << bytes << " open_flows=" << open_flows;
    if (mux != nullptr) {
      diag << " reports=" << mux->reports_emitted();
      const double t1 = mux->last_report_t1();
      if (std::isfinite(t1)) {
        std::snprintf(buf, sizeof(buf), "%.1f", t_hi - t1);
        diag << " lag=" << buf << "s";
      } else {
        diag << " lag=n/a";
      }
    }
    diag << " vmhwm=" << read_status_kb("VmHWM:") << "kB" << std::endl;
    last_ = now;
    last_records_ = records;
  }

 private:
  double interval_;
  std::chrono::steady_clock::time_point last_;
  std::uint64_t last_records_ = 0;
};

}  // namespace

/// Per-run engines and output plumbing: the EngineMux, built at the
/// first chunk that carries packets, one DriftTracker per engine, and
/// the report-stream writers. Lives in the .cpp — callers only see the
/// option struct.
struct MonitorDaemon::Sinks {
  std::ostream& rep;
  const MonitorOptions& opts;
  std::unique_ptr<EngineMux> mux;
  std::vector<DriftTracker> trackers;
  std::vector<MuxReport> scratch;
  std::vector<std::string> lines;

  Sinks(std::ostream& rep_stream, const MonitorOptions& options)
      : rep(rep_stream), opts(options) {}

  /// Feeds a chunk of at least one packet through the engines, built
  /// with stream origin `origin` on the first call, and writes the
  /// report rounds it completes.
  void push(const stream::PacketColumns& cols, double origin) {
    if (!mux) {
      mux = std::make_unique<EngineMux>(opts.window, opts.protocols, origin);
      for (std::size_t i = 0; i < mux->engines(); ++i)
        trackers.emplace_back(mux->engine_name(i), opts.drift);
    }
    mux->push(cols);
    drain();
  }

  /// Completes bins through t_end and writes the final rounds; nothing
  /// when no packet ever arrived.
  void finish(double t_end) {
    if (!mux) return;
    mux->finish(t_end);
    drain();
  }

  void drain() {
    scratch.clear();
    mux->take_reports(scratch);
    for (const MuxReport& mr : scratch) {
      const std::string& name = mux->engine_name(mr.engine);
      rep << report_json(name, mr.report) << '\n';
      lines.clear();
      trackers[mr.engine].on_report(mr.report, lines);
      for (const std::string& line : lines) rep << "# " << line << '\n';
      if (opts.report_hook) opts.report_hook(name, mr.report);
    }
  }

  void ledger(const ingest::IngestStats& stats, const char* reason) {
    rep << "# shutdown: " << reason << '\n';
    std::istringstream ls(stats.to_string());
    for (std::string line; std::getline(ls, line);)
      rep << "# " << line << '\n';
    rep.flush();
  }
};

void MonitorDaemon::install_signal_handlers() {
  struct sigaction sa;
  sigemptyset(&sa.sa_mask);
  sa.sa_handler = handle_stop_signal;
  sa.sa_flags = 0;  // no SA_RESTART: blocking reads wake with EINTR
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

void MonitorDaemon::reset_signal_stop() {
  g_stop.store(false, std::memory_order_relaxed);
}

MonitorDaemon::MonitorDaemon(MonitorOptions options)
    : options_(std::move(options)) {}

bool MonitorDaemon::stopped() const {
  return stop_.load(std::memory_order_relaxed) ||
         g_stop.load(std::memory_order_relaxed);
}

void MonitorDaemon::sleep_slice(double seconds) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!stopped() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(
        seconds < 0.05 ? (long)(seconds * 1000.0) + 1 : 50));
}

int MonitorDaemon::run_replay(ReplaySource& source) {
  std::ostream& rep = options_.report_out ? *options_.report_out : std::cout;
  std::ostream& diag = options_.diag_out ? *options_.diag_out : std::cerr;

  Sinks sinks(rep, options_);
  SelfStats self(options_.stats_interval);

  stream::PacketColumns chunk;
  double t_hi = 0.0;
  bool exhausted = false;
  while (!stopped()) {
    if (!source.next(chunk)) {
      exhausted = true;
      break;
    }
    if (!chunk.time.empty()) {
      t_hi = chunk.time.back();
      sinks.push(chunk, source.origin());
    }
    self.tick(diag, source.stats().records, source.stats().bytes,
              /*open_flows=*/0, sinks.mux.get(), t_hi);
  }

  // A complete replay finishes at the end of the range its pass learned
  // (bit-parity with the offline analyzer); an interrupted one at the
  // last event pushed.
  sinks.finish(exhausted ? source.info().t_end : t_hi);
  sinks.ledger(source.stats(), exhausted ? "end of capture" : "stop requested");
  return 0;
}

int MonitorDaemon::run_follow(TailPcapSource& source) {
  std::ostream& rep = options_.report_out ? *options_.report_out : std::cout;
  std::ostream& diag = options_.diag_out ? *options_.diag_out : std::cerr;

  ingest::FlowTable table(options_.flow);
  Sinks sinks(rep, options_);
  SelfStats self(options_.stats_interval);

  std::vector<ingest::RawPacket> raw;
  stream::PacketColumns cols;
  int rc = 0;
  const char* reason = "stop requested";
  while (!stopped()) {
    raw.clear();
    const PollStatus status = source.poll(raw, options_.chunk_size);
    if (!raw.empty()) {
      cols.clear();
      for (const ingest::RawPacket& pkt : raw) table.add_append(pkt, cols);
      if (!cols.time.empty()) sinks.push(cols, cols.time.front());
    }
    if (status == PollStatus::kCaughtUp) {
      sleep_slice(options_.poll_interval);
    } else if (status == PollStatus::kEndOfStream) {
      reason = "end of stream";
      break;
    } else if (status == PollStatus::kCorrupt) {
      reason = "corrupt input";
      rc = 1;
      break;
    }
    self.tick(diag, source.stats().records, source.stats().bytes,
              table.open_flows(), sinks.mux.get(), source.max_time_seen());
  }

  // Same end convention the offline prescan uses: one tick past the
  // last timestamp, so the final event's bin is complete.
  sinks.finish(source.max_time_seen() +
               (source.header_ok() ? source.tick() : 0.0));
  sinks.ledger(source.stats(), reason);
  return rc;
}

bool parse_monitor_cli(int argc, char** argv, MonitorCli& cli,
                       std::string& err) {
  tools::ArgParser args(argc, argv);
  args.add_option("--follow");
  args.add_option("--replay");
  args.add_option("--speed");
  args.add_option("--bin");
  args.add_option("--window");
  args.add_option("--slide");
  args.add_option("--segment-bins");
  args.add_option("--sweep-levels");
  args.add_option("--poisson-interval");
  args.add_option("--protocols");
  args.add_option("--json");
  args.add_option("--poll-interval");
  args.add_option("--stats-interval");
  args.add_option("--idle-timeout");
  args.add_option("--chunk");
  args.add_option("--threads");
  args.add_flag("--lenient");
  if (!args.parse(&err)) return false;

  try {
    args.reject_together("--follow", "--replay",
                         "the daemon tracks exactly one source");
    args.reject_together("--follow", "--speed",
                         "a live tail cannot be paced; --speed applies to "
                         "--replay only");
    if (!args.positional().empty()) {
      err = "unexpected positional argument '" + args.positional().front() +
            "'; the source is named by --follow or --replay";
      return false;
    }
    const std::string* follow = args.value("--follow");
    const std::string* replay = args.value("--replay");
    if (follow == nullptr && replay == nullptr) {
      err = "one of --follow PATH or --replay PATH is required";
      return false;
    }
    cli.follow_path = follow != nullptr ? *follow : "";
    cli.replay_path = replay != nullptr ? *replay : "";
    cli.speed = args.number("--speed", 0.0);
    if (cli.speed < 0.0) {
      err = "--speed wants a non-negative factor (0 = as fast as possible)";
      return false;
    }

    stream::WindowedOptions& w = cli.options.window;
    w.bin = args.number("--bin", 1.0);
    w.window = args.number("--window", 3600.0);
    w.slide = args.number("--slide", 300.0);
    w.segment_bins = args.count("--segment-bins", 0);
    w.sweep_levels = args.count("--sweep-levels", 0);
    w.poisson_interval = args.number("--poisson-interval", 60.0);
    stream::window_geometry(w);  // reject bad geometry at the CLI, loudly

    cli.options.mode = args.has("--lenient") ? ingest::ParseMode::kLenient
                                             : ingest::ParseMode::kStrict;
    cli.options.flow.idle_timeout = args.number("--idle-timeout", 3600.0);
    cli.options.chunk_size = args.count("--chunk", 4096, 1);
    cli.options.poll_interval = args.number("--poll-interval", 0.2);
    cli.options.stats_interval = args.number("--stats-interval", 10.0);
    cli.threads = args.count("--threads", 0);
    if (const std::string* j = args.value("--json")) cli.json_path = *j;

    const std::string csv = args.value("--protocols") != nullptr
                                ? *args.value("--protocols")
                                : "TELNET,FTPDATA,NNTP,SMTP,WWW";
    cli.options.protocols.clear();
    std::size_t start = 0;
    while (start <= csv.size()) {
      const std::size_t comma = csv.find(',', start);
      const std::string token =
          csv.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
      const auto proto = trace::protocol_from_string(token);
      if (!proto) {
        err = "--protocols: unknown protocol '" + token + "'";
        return false;
      }
      cli.options.protocols.push_back(*proto);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  } catch (const std::invalid_argument& e) {
    err = e.what();
    return false;
  }
  return true;
}

}  // namespace wan::monitor
