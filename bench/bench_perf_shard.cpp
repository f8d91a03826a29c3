// bench_perf_shard — the shard-parallel pipeline against the
// month-scale target: a 30-day trace at ~1e5 connections/hour,
// synthesized and analyzed end-to-end, with 1/2/4/8-thread
// scaling-efficiency rows appended to BENCH_perf.json.
//
// The month streams through as a sequence of day-long synthesis
// windows (the synthesizer's connection skeleton is O(connections in
// the window), so windowing is what bounds RSS at month scale — peak
// memory is set by the busiest window plus the accumulated count
// series, never by the trace length). Each window runs through
// analyze_sharded_sources with per-shard synthesis: shard s generates
// exactly its own connections, so generation AND analysis divide
// across the pool. Window count series tile exactly (the window length
// is a whole multiple of the bin), so concatenating them is the serial
// count series of the whole month.
//
// Every row records the host's core count next to its thread count
// (bench_harness), and the scaling gate only bites when cores > 1 — a
// 1-core container reports its ~1x rows as data, not failure.
//
// Usage: bench_perf_shard [JSON_PATH] [--smoke] [--days D]
//   --smoke shrinks the scenario to CI size (two 6-minute windows).
//   --days D overrides the full scenario's length (default 30), for
//   calibration runs; fractional D shrinks to one D-day window. Op
//   names carry the length: shard_pipeline/month/t* for the 30 days,
//   shard_pipeline/7d/t* or shard_pipeline/6h/t* otherwise.
//   Measured at volume_scale 10.6: ~9.3e4 connections/hour day-average
//   and ~5.3e7 packets/day, so the full 30-day run generates ~1.6e9
//   packets per thread count — expect ~10 minutes per row on one core.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_harness.hpp"
#include "src/stream/pipeline.hpp"
#include "src/stream/shard.hpp"
#include "src/synth/stream_synth.hpp"
#include "src/synth/synthesizer.hpp"

using namespace wan;

namespace {

long read_vm_hwm_kb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 7);
  }
  return 0;
}

struct Scenario {
  double window_hours = 24.0;  ///< one synthesis window
  std::size_t windows = 30;    ///< windows per run (30 days)
  /// lbl_pkt preset scaled to the ROADMAP target: measured 9.28e4
  /// connections/hour averaged over a diurnal day at this multiplier.
  double volume_scale = 10.6;
  std::size_t shards = 8;
  double bin = 1.0;            ///< Section VII count resolution
};

/// Window w's synthesis config: consecutive windows tile the month in
/// absolute time and draw from per-window child seeds, so the month is
/// one deterministic trace regardless of shard or thread count.
synth::PacketDatasetConfig window_config(const Scenario& sc, std::size_t w) {
  synth::PacketDatasetConfig cfg =
      synth::lbl_pkt_preset("SHARD-MONTH", /*tcp_only=*/false,
                            /*seed=*/9000 + w);
  cfg.hours = sc.window_hours;
  cfg.start_hour = sc.window_hours * static_cast<double>(w);
  cfg.volume_scale = sc.volume_scale;
  return cfg;
}

struct RunResult {
  std::uint64_t packets = 0;
  std::vector<std::uint64_t> counts;  ///< month count series, concatenated
  long peak_rss_kb = 0;
  long rss_after_two_windows_kb = 0;
};

/// One end-to-end month: every window synthesized per shard and folded
/// through the sharded pipeline at the current thread count.
RunResult run_month(const Scenario& sc) {
  RunResult out;
  for (std::size_t w = 0; w < sc.windows; ++w) {
    const synth::PacketDatasetConfig cfg = window_config(sc, w);
    stream::PipelineOptions opt;
    opt.bin = sc.bin;
    const stream::PipelineResult r = stream::analyze_sharded_sources(
        [&](std::size_t s) -> std::unique_ptr<stream::PacketChunkSource> {
          return std::make_unique<synth::StreamingPacketSynthesizer>(
              cfg, stream::kDefaultChunkSize,
              synth::SynthShard{s, sc.shards});
        },
        sc.shards, opt);
    out.packets += r.packets;
    out.counts.insert(out.counts.end(), r.counts.begin(), r.counts.end());
    if (w == 1) out.rss_after_two_windows_kb = read_vm_hwm_kb();
  }
  out.peak_rss_kb = read_vm_hwm_kb();
  return out;
}

/// The scenario's name in op names: "month" only for the 30-day run.
std::string scenario_tag(const Scenario& sc, bool smoke) {
  if (smoke) return "smoke";
  const double hours = sc.window_hours * static_cast<double>(sc.windows);
  if (hours == 30.0 * 24.0) return "month";
  char buf[32];
  if (std::fmod(hours, 24.0) == 0.0)
    std::snprintf(buf, sizeof(buf), "%gd", hours / 24.0);
  else
    std::snprintf(buf, sizeof(buf), "%gh", hours);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  double days = 30.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc)
      days = std::atof(argv[++i]);
  }
  bench::Harness harness(argc, argv);  // flags in argv[1] are not a path

  Scenario sc;
  if (smoke) {
    sc.window_hours = 0.1;  // two 6-minute windows, CI-sized
    sc.windows = 2;
    sc.bin = 0.5;
  } else if (days >= 1.0) {
    sc.windows = static_cast<std::size_t>(days + 0.5);
    sc.window_hours = 24.0;
  } else {
    // Fractional --days: one window of that length (calibration runs).
    sc.windows = 1;
    sc.window_hours = (days > 0 ? days : 30.0) * 24.0;
  }
  const std::string tag = scenario_tag(sc, smoke);

  // The 1-thread run is both the byte-identity baseline every other
  // thread count must reproduce and the wall-time anchor of the
  // speedup column.
  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  RunResult baseline;
  double baseline_ms = 0.0;
  double best_speedup = 0.0;

  for (const std::size_t threads : thread_counts) {
    par::set_thread_count(threads);
    RunResult run;
    const double ms = bench::min_time_ms([&] { run = run_month(sc); }, 1);
    if (threads == 1) {
      baseline = run;
      baseline_ms = ms;
    }

    bench::BenchResult row;
    row.op = std::string("shard_pipeline/") + tag + "/t" +
             std::to_string(threads);
    row.threads = threads;
    row.items = static_cast<double>(run.packets);
    row.unit = "packets";
    row.serial_ms = baseline_ms;
    row.parallel_ms = ms;
    row.speedup = ms > 0.0 ? baseline_ms / ms : 1.0;
    row.throughput = ms > 0.0 ? row.items / (ms / 1000.0) : 0.0;
    // Sharded == serial, byte for byte, at every thread count: same
    // packet total and same month count series as the 1-thread run.
    row.identical =
        run.packets == baseline.packets && run.counts == baseline.counts;
    if (threads > 1 && row.speedup > best_speedup)
      best_speedup = row.speedup;

    const double efficiency =
        row.speedup / static_cast<double>(threads);
    const bool rss_bounded =
        run.rss_after_two_windows_kb == 0 ||
        run.peak_rss_kb <=
            run.rss_after_two_windows_kb + (256u << 10);  // +256 MB slack
    std::ostringstream eff, shards_s, windows_s, rss, bounded;
    eff << efficiency;
    shards_s << sc.shards;
    windows_s << sc.windows;
    rss << run.peak_rss_kb;
    bounded << (rss_bounded ? "true" : "false");
    row.extra = {{"efficiency", eff.str()},
                 {"shards", shards_s.str()},
                 {"windows", windows_s.str()},
                 {"peak_rss_kb", rss.str()},
                 {"rss_bounded", bounded.str()}};
    harness.add(row);

    if (!row.identical) {
      std::fprintf(stderr,
                   "FAIL: %zu-thread run diverged from the 1-thread bytes\n",
                   threads);
      return 1;
    }
    if (!rss_bounded) {
      std::fprintf(stderr,
                   "FAIL: peak RSS %ld kB grew past the window-bounded "
                   "budget (%ld kB after two windows)\n",
                   run.peak_rss_kb, run.rss_after_two_windows_kb);
      return 1;
    }
  }
  par::set_thread_count(1);

  // Scaling gate: only meaningful with real cores to scale onto.
  if (!smoke && bench::cores() > 1 && best_speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: best sharded speedup %.2fx < 1.5x target on a "
                 "%zu-core host\n",
                 best_speedup, bench::cores());
    return 1;
  }
  return 0;
}
