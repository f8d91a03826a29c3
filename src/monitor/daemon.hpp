// The wantraffic_monitor daemon: wires an unbounded source (tail or
// replay) through the flow table and the per-protocol EngineMux, and
// turns the resulting report rounds into two output streams:
//
//   * the report stream (--json FILE or stdout) — one JSON line per
//     engine per slide, plus "# "-prefixed drift-transition lines and a
//     final "# "-prefixed shutdown block carrying the ingest ledger.
//     Every byte on this stream is derived from the capture alone (no
//     wall clock, no rates), which is what makes a --speed 0 replay
//     byte-reproducible and comparable against the offline analyzer.
//
//   * the diagnostic stream (stderr) — periodic self-stats (packets/s,
//     open flows, RSS watermark, per-engine lag behind the newest
//     event) and anything else wall-clock flavored.
//
// Shutdown: SIGINT/SIGTERM set a process-wide flag (handlers installed
// with sigaction and no SA_RESTART, so a blocking read returns EINTR
// and the poll loop observes the flag promptly). The daemon then
// finishes every engine at the last event time seen, drains the final
// report rounds, and flushes the ledger — a paced replay and a tail
// follow both exit through the same path.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/ingest/flow_table.hpp"
#include "src/ingest/ingest_stats.hpp"
#include "src/monitor/drift.hpp"
#include "src/monitor/mux.hpp"
#include "src/monitor/replay_source.hpp"
#include "src/monitor/tail_source.hpp"
#include "src/stream/window_analyzer.hpp"
#include "src/trace/protocol.hpp"

namespace wan::monitor {

struct MonitorOptions {
  stream::WindowedOptions window;  ///< shared slide geometry (no filters)
  std::vector<trace::Protocol> protocols;  ///< per-protocol engines
  ingest::ParseMode mode = ingest::ParseMode::kStrict;
  ingest::FlowTableConfig flow{3600.0, /*collect_connections=*/false};
  std::size_t chunk_size = 4096;  ///< packets decoded per poll/push
  double poll_interval = 0.2;     ///< tail: sleep between kCaughtUp polls
  double stats_interval = 10.0;   ///< self-stats cadence, seconds; 0 off
  DriftConfig drift;

  std::ostream* report_out = nullptr;  ///< JSONL stream; null = std::cout
  std::ostream* diag_out = nullptr;    ///< self-stats; null = std::cerr
  /// Test hook: observes every (engine name, report) pair as emitted.
  std::function<void(const std::string&, const stream::WindowReport&)>
      report_hook;
};

class MonitorDaemon {
 public:
  explicit MonitorDaemon(MonitorOptions options);

  /// Replays `source` to exhaustion (or until stopped). Returns 0. The
  /// engines start at the replay's origin() when the first packet
  /// arrives. Strict-mode defects propagate as ingest::IngestError from
  /// the record that holds them, after the reports the earlier records
  /// complete, as in run_follow.
  int run_replay(ReplaySource& source);

  /// Follows `source` until end-of-stream (pipes), corruption, or a
  /// stop request. Returns 0, or 1 when the input went corrupt.
  /// Strict-mode defects propagate as ingest::IngestError.
  int run_follow(TailPcapSource& source);

  /// Asks the running loop to shut down (signal-safe is not required
  /// here — tests call it from another thread; signals use the global
  /// flag installed by install_signal_handlers()).
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  const std::atomic<bool>* stop_flag() const { return &stop_; }

  /// Routes SIGINT/SIGTERM to a process-wide stop flag every daemon
  /// checks. No SA_RESTART: a tail blocked in read() wakes with EINTR.
  static void install_signal_handlers();
  /// Clears the process-wide flag (tests raise() repeatedly).
  static void reset_signal_stop();

 private:
  struct Sinks;  // engines' drift trackers + output plumbing

  bool stopped() const;
  void sleep_slice(double seconds) const;

  MonitorOptions options_;
  std::atomic<bool> stop_{false};
};

/// Everything `wantraffic_monitor` parses from argv, exposed as a
/// library function so tests pin flag strictness without spawning the
/// binary. On success fills `cli`; on bad usage returns false with a
/// message in `err` (ArgParser's numeric/unknown-flag/contradiction
/// throws are converted to that same false-with-message path).
struct MonitorCli {
  MonitorOptions options;
  std::string follow_path;  ///< nonempty when --follow PATH given
  std::string replay_path;  ///< nonempty when --replay PATH given
  double speed = 0.0;       ///< --speed (replay only); 0 = unpaced
  std::size_t threads = 0;  ///< --threads; 0 = library default
  std::string json_path;    ///< --json FILE; empty = stdout
};

bool parse_monitor_cli(int argc, char** argv, MonitorCli& cli,
                       std::string& err);

}  // namespace wan::monitor
