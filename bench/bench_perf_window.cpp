// bench_perf_window — incremental sliding-window engine vs naive
// per-window re-analysis.
//
// Usage: bench_perf_window [JSON_PATH] [--smoke] [--repeat N]
//
// Four phases, all single-thread (the windowed engine is a serial
// monitor loop by design):
//
//  1. parity — the rolling engine's reports against analyze_window_batch
//     recomputed from scratch at every slide boundary: counts-derived
//     fields (packets, burst/lull, variance-time H) must match exactly,
//     moments to 1e-12 relative, the block-update Whittle H to 1e-4
//     against the cold fit (the refitter's lattice parabola and the
//     golden-section search each resolve the minimizer to ~1e-5, so
//     their disagreement is bounded well inside 1e-4 — and two decades
//     below the estimator's stderr). The rolling averaged-periodogram ordinates are
//     pinned against the batch AveragedPeriodogram at <= 1e-12 relative
//     (the SegmentRing design makes them bit-identical).
//  2. throughput — sustained slide updates/sec of the rolling engine vs
//     the naive loop on the same in-memory stream. The acceptance gate
//     (full run only, not --smoke) requires >= 10x: the naive loop pays
//     O(window) re-binning, re-testing and cold Whittle localization
//     per slide; the rolling engine pays O(slide) incremental work plus
//     the O(window_bins) per-report statistics.
//  3. bounded RSS — a simulated multi-day monitor run (48 h streamed
//     through the engine) may not grow peak RSS beyond ~2x a 4 h run:
//     the engine's state is rings sized by the window, never by stream
//     length. Measured via VmHWM like bench_perf_stream.
//  4. refit kernel — a fresh WhittleRefitter plus one monitor engine's
//     fits on the daemon's grid (150-bin segments, 74 ordinates): 1 cold
//     and 35 hinted level-0 fits and their 36 level-1 fits, in process
//     CPU time. `identical` records that the fresh refitter gives the
//     bits of one whose rows were all read before.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_harness.hpp"
#include "src/fft/periodogram.hpp"
#include "src/fft/rolling_periodogram.hpp"
#include "src/stats/whittle.hpp"
#include "src/stream/window_analyzer.hpp"
#include "src/synth/stream_synth.hpp"
#include "src/synth/synthesizer.hpp"

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

synth::PacketDatasetConfig bench_config(double hours) {
  synth::PacketDatasetConfig cfg =
      synth::lbl_pkt_preset("BENCHW", /*tcp_only=*/true, /*seed=*/23);
  cfg.hours = hours;
  return cfg;
}

stream::WindowedOptions bench_options() {
  stream::WindowedOptions opt;
  opt.bin = 0.1;
  opt.window = 1800.0;  // 18000 bins
  opt.slide = 60.0;     // 600 bins -> 30 slides per window
  opt.sweep_levels = 1; // segments: 300 bins at level 0
  opt.poisson_interval = 60.0;
  return opt;
}

/// All post-filter event times of the synthesized stream, in time
/// order, plus the stream bounds — the shared input both loops consume.
struct StreamData {
  std::vector<double> times;
  double t_begin = 0.0;
  double t_end = 0.0;
};

StreamData collect_times(const synth::PacketDatasetConfig& cfg) {
  StreamData d;
  synth::StreamingPacketSynthesizer src(cfg);
  d.t_begin = src.info().t_begin;
  d.t_end = src.info().t_end;
  std::vector<trace::PacketRecord> chunk;
  while (src.next(chunk))
    for (const trace::PacketRecord& r : chunk) d.times.push_back(r.time);
  return d;
}

std::vector<stream::WindowReport> run_rolling(
    const StreamData& d, const stream::WindowedOptions& opt) {
  std::vector<stream::WindowReport> reports;
  stream::WindowedAnalyzer engine(
      opt, d.t_begin,
      [&reports](const stream::WindowReport& r) { reports.push_back(r); });
  engine.push_times(d.times);
  engine.finish(d.t_end);
  return reports;
}

/// The from-scratch loop: at every slide boundary, slice the window's
/// events and run the batch estimators over them.
std::vector<stream::WindowReport> run_naive(
    const StreamData& d, const stream::WindowedOptions& opt) {
  const stream::WindowGeometry g = stream::window_geometry(opt);
  const auto stream_bins = static_cast<std::uint64_t>(
      (d.t_end - d.t_begin) / opt.bin + 1e-9);
  std::vector<stream::WindowReport> reports;
  for (std::uint64_t bins = g.window_bins; bins <= stream_bins;
       bins += g.slide_bins) {
    const double t1 = d.t_begin + static_cast<double>(bins) * opt.bin;
    const double t0 =
        d.t_begin + static_cast<double>(bins - g.window_bins) * opt.bin;
    const auto lo = std::lower_bound(d.times.begin(), d.times.end(), t0);
    const auto hi = std::lower_bound(lo, d.times.end(), t1);
    reports.push_back(stream::analyze_window_batch(
        std::span<const double>(&*lo, static_cast<std::size_t>(hi - lo)), t0,
        opt));
  }
  return reports;
}

double rel_diff(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return scale == 0.0 ? 0.0 : std::abs(a - b) / scale;
}

/// Worst relative disagreement across all report fields, with the exact
/// fields (packets, burst/lull, VT) required to match bitwise and the
/// Whittle fields checked against the refit-vs-cold 1e-4 contract.
/// Returns false (and prints the first offender) on any violation.
bool check_parity(const std::vector<stream::WindowReport>& rolling,
                  const std::vector<stream::WindowReport>& naive,
                  double* max_moment_rel, double* max_whittle_diff) {
  *max_moment_rel = 0.0;
  *max_whittle_diff = 0.0;
  if (rolling.size() != naive.size()) {
    std::printf("parity: report count %zu (rolling) vs %zu (naive)\n",
                rolling.size(), naive.size());
    return false;
  }
  for (std::size_t i = 0; i < rolling.size(); ++i) {
    const stream::WindowReport& r = rolling[i];
    const stream::WindowReport& n = naive[i];
    if (r.packets != n.packets || r.mean_burst_bins != n.mean_burst_bins ||
        r.mean_lull_bins != n.mean_lull_bins || r.vt_hurst != n.vt_hurst) {
      std::printf("parity: exact field mismatch at report %zu\n", i);
      return false;
    }
    *max_moment_rel = std::max({*max_moment_rel,
                                rel_diff(r.mean_count, n.mean_count),
                                rel_diff(r.var_count, n.var_count)});
    *max_whittle_diff = std::max(
        *max_whittle_diff, std::abs(r.whittle.hurst - n.whittle.hurst));
    for (std::size_t l = 0; l < r.sweep_hurst.size(); ++l)
      *max_whittle_diff = std::max(
          *max_whittle_diff, std::abs(r.sweep_hurst[l] - n.sweep_hurst[l]));
    if (r.poisson && n.poisson &&
        (r.poisson->n_intervals != n.poisson->n_intervals ||
         r.poisson->n_pass_exponential != n.poisson->n_pass_exponential ||
         r.poisson->n_pass_independence != n.poisson->n_pass_independence)) {
      std::printf("parity: poisson mismatch at report %zu\n", i);
      return false;
    }
  }
  if (*max_moment_rel > 1e-12) {
    std::printf("parity: moment rel diff %g > 1e-12\n", *max_moment_rel);
    return false;
  }
  if (*max_whittle_diff > 1e-4) {
    std::printf("parity: whittle diff %g > 1e-4\n", *max_whittle_diff);
    return false;
  }
  return true;
}

/// Rolling SegmentRing vs batch AveragedPeriodogram over one window of
/// the real count series: the ordinate pin. Returns the max relative
/// ordinate difference (the design makes it exactly 0).
double periodogram_parity(const StreamData& d,
                          const stream::WindowedOptions& opt) {
  const stream::WindowGeometry g = stream::window_geometry(opt);
  std::vector<double> counts(g.window_bins, 0.0);
  const double t0 = d.t_begin;
  for (double t : d.times) {
    const auto idx = static_cast<std::size_t>((t - t0) / opt.bin);
    if (idx < counts.size()) counts[idx] += 1.0;
  }
  fft::SegmentRing ring(g.segment_bins, g.segments_per_window);
  fft::AveragedPeriodogram batch(g.segment_bins);
  ring.push_samples(counts);
  for (std::size_t s = 0; s + g.segment_bins <= counts.size();
       s += g.segment_bins)
    batch.push(std::span<const double>(counts).subspan(s, g.segment_bins));
  const fft::Periodogram a = ring.finish();
  const fft::Periodogram b = batch.finish();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.ordinate.size(); ++i)
    worst = std::max(worst, rel_diff(a.ordinate[i], b.ordinate[i]));
  return worst;
}

struct RssPhase {
  double ms = 0.0;
  long peak_growth_kb = 0;
  std::size_t reports = 0;
};

RssPhase run_rss_phase(double hours, const stream::WindowedOptions& opt) {
  const long before = read_status_kb("VmRSS:");
  reset_peak_rss();
  RssPhase r;
  const auto t0 = std::chrono::steady_clock::now();
  synth::StreamingPacketSynthesizer src(bench_config(hours));
  std::size_t reports = 0;
  stream::WindowedAnalyzer engine(
      opt, src.info().t_begin,
      [&reports](const stream::WindowReport&) { ++reports; });
  std::vector<trace::PacketRecord> chunk;
  std::vector<double> times;
  while (src.next(chunk)) {
    times.clear();
    for (const trace::PacketRecord& rec : chunk) times.push_back(rec.time);
    engine.push_times(times);
  }
  engine.finish(src.info().t_end);
  const auto t1 = std::chrono::steady_clock::now();
  r.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.reports = reports;
  r.peak_growth_kb = read_status_kb("VmHWM:") - before;
  return r;
}

/// The periodograms one monitor engine fits over a 4 h replay at the
/// daemon's geometry (1 s bins, 3600 s window, 300 s slide, sweep level
/// 1): per report, the level-0 and level-1 rings of a cascade of
/// 150-bin segments, here over Poisson counts of mean 5.
struct EngineFits {
  std::vector<fft::Periodogram> level0, level1;
};

EngineFits engine_fits() {
  constexpr std::size_t kSegment = 150, kWindow = 3600, kSlide = 300,
                        kReports = 36;
  std::mt19937 gen(29);
  std::poisson_distribution<int> pois(5.0);
  std::vector<double> counts(kWindow + (kReports - 1) * kSlide);
  for (double& c : counts) c = static_cast<double>(pois(gen));
  fft::SegmentRingCascade cascade(kSegment, kWindow / kSegment, 1);
  EngineFits fits;
  const std::span<const double> all(counts);
  cascade.push_samples(all.first(kWindow));
  for (std::size_t r = 0;; ++r) {
    fits.level0.push_back(cascade.ring(0).finish());
    fits.level1.push_back(cascade.ring(1).finish());
    if (r + 1 == kReports) break;
    cascade.push_samples(all.subspan(kWindow + r * kSlide, kSlide));
  }
  return fits;
}

/// The engine's fit sequence: each level-0 fit hinted by the previous
/// report's, each level-1 fit by its level-0 fit. Returns the H bits.
std::vector<double> run_engine_fits(const stats::WhittleRefitter& refitter,
                                    const EngineFits& fits) {
  std::vector<double> hurst;
  std::optional<double> last;
  for (std::size_t r = 0; r < fits.level0.size(); ++r) {
    stats::WhittleOptions o0;
    o0.hurst_hint = last;
    const double h0 = refitter.fit(fits.level0[r], o0).hurst;
    stats::WhittleOptions o1;
    o1.hurst_hint = h0;
    hurst.push_back(h0);
    hurst.push_back(refitter.fit(fits.level1[r], o1).hurst);
    last = h0;
  }
  return hurst;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  bench::Harness harness(argc, argv);

  stream::WindowedOptions opt = bench_options();
  if (smoke) {
    opt.window = 600.0;  // 6000 bins, CI-sized
    opt.slide = 60.0;
  }
  const double hours = smoke ? 0.5 : 3.0;
  const StreamData data = collect_times(bench_config(hours));
  std::printf("stream: %zu packets over %.2f h\n", data.times.size(),
              (data.t_end - data.t_begin) / 3600.0);

  // Phase 1: parity.
  const std::vector<stream::WindowReport> rolling = run_rolling(data, opt);
  const std::vector<stream::WindowReport> naive = run_naive(data, opt);
  double max_moment_rel = 0.0, max_whittle_diff = 0.0;
  const bool parity_ok =
      check_parity(rolling, naive, &max_moment_rel, &max_whittle_diff);
  const double pg_rel = periodogram_parity(data, opt);
  const bool pg_ok = pg_rel <= 1e-12;
  std::printf("parity: %zu reports, moment rel %.3g, whittle diff %.3g, "
              "periodogram rel %.3g -> %s\n",
              rolling.size(), max_moment_rel, max_whittle_diff, pg_rel,
              parity_ok && pg_ok ? "PASS" : "FAIL");

  // Phase 2: throughput. Single-thread by harness contract (the engine
  // has no parallel path; set_thread_count(1) happens inside time_ms's
  // serial wrapper below via serial-only semantics).
  par::set_thread_count(1);
  const int reps = smoke ? 1 : 3;
  const double rolling_ms =
      harness.time_ms([&] { run_rolling(data, opt); }, reps);
  const double naive_ms =
      harness.time_ms([&] { run_naive(data, opt); }, smoke ? 1 : 2);
  const double updates = static_cast<double>(rolling.size());
  const double ratio = rolling_ms > 0.0 ? naive_ms / rolling_ms : 0.0;
  std::printf("throughput: rolling %.1f ms, naive %.1f ms, %zu updates, "
              "%.1fx\n",
              rolling_ms, naive_ms, rolling.size(), ratio);

  {
    bench::BenchResult r;
    r.op = std::string("window_rolling_vs_naive") + (smoke ? "/smoke" : "");
    r.threads = 1;
    r.items = updates;
    r.unit = "updates";
    r.repeats = harness.repeats(reps);
    // serial_ms = naive, parallel_ms = rolling: the speedup column reads
    // as "rolling updates/sec over naive re-analysis".
    r.serial_ms = naive_ms;
    r.parallel_ms = rolling_ms;
    r.speedup = ratio;
    r.throughput = rolling_ms > 0.0 ? updates / (rolling_ms / 1000.0) : 0.0;
    r.identical = parity_ok && pg_ok;
    r.extra = {
        {"max_moment_rel", std::to_string(max_moment_rel)},
        {"max_whittle_diff", std::to_string(max_whittle_diff)},
        {"periodogram_rel", std::to_string(pg_rel)},
    };
    harness.add(r);
  }

  // Phase 3: bounded RSS across a simulated multi-day run.
  const RssPhase short_run = run_rss_phase(smoke ? 1.0 : 4.0, opt);
  const RssPhase long_run = run_rss_phase(smoke ? 2.0 : 48.0, opt);
  const bool rss_measured =
      short_run.peak_growth_kb > 0 && long_run.peak_growth_kb > 0;
  // Ring state is window-sized; the streaming synthesizer's skeletons
  // grow with trace length, hence the additive slack.
  const bool rss_bounded =
      rss_measured &&
      long_run.peak_growth_kb < 2 * short_run.peak_growth_kb + 64 * 1024;
  std::printf("peak RSS growth: %s run %ld kB (%zu reports), multi-day run "
              "%ld kB (%zu reports) -> rss_bounded %s\n",
              smoke ? "1h" : "4h", short_run.peak_growth_kb,
              short_run.reports, long_run.peak_growth_kb, long_run.reports,
              rss_bounded ? "PASS" : "FAIL");
  {
    bench::BenchResult r;
    r.op = std::string("window_multiday_rss") + (smoke ? "/smoke" : "");
    r.threads = 1;
    r.items = static_cast<double>(long_run.reports);
    r.unit = "reports";
    r.repeats = 1;
    r.serial_ms = long_run.ms;
    r.parallel_ms = long_run.ms;
    r.throughput =
        long_run.ms > 0.0 ? r.items / (long_run.ms / 1000.0) : 0.0;
    r.identical = true;
    r.extra = {
        {"short_peak_rss_kb", std::to_string(short_run.peak_growth_kb)},
        {"long_peak_rss_kb", std::to_string(long_run.peak_growth_kb)},
        {"rss_bounded", rss_bounded ? "true" : "false"},
    };
    harness.add(r);
  }

  // Phase 4: the refit kernel, a fresh refitter per rep.
  {
    const EngineFits fits = engine_fits();
    const std::vector<double> grid = fits.level0.front().frequency;
    const stats::WhittleRefitter warm(grid);
    run_engine_fits(warm, fits);  // reads every row the sequence reads
    const std::vector<double> reference = run_engine_fits(warm, fits);
    std::vector<double> fresh_bits;
    std::size_t rows_built = 0;
    par::set_thread_count(1);
    bench::BenchResult r;
    r.op = std::string("whittle_refit_engine/74") + (smoke ? "/smoke" : "");
    r.threads = 1;
    r.items = static_cast<double>(2 * fits.level0.size());
    r.unit = "fits";
    r.repeats = harness.repeats(7);
    r.serial_ms = bench::min_cpu_time_ms(
        [&] {
          const stats::WhittleRefitter fresh(grid);
          fresh_bits = run_engine_fits(fresh, fits);
          rows_built = fresh.rows_built();
        },
        r.repeats);
    r.parallel_ms = r.serial_ms;
    r.throughput = r.serial_ms > 0.0 ? r.items / (r.serial_ms / 1000.0) : 0.0;
    r.identical = fresh_bits == reference;
    r.extra.emplace_back("rows_built", std::to_string(rows_built));
    std::printf("refit kernel: fresh refitter + %zu fits %.2f ms CPU, %zu "
                "rows built -> %s\n",
                2 * fits.level0.size(), r.serial_ms, rows_built,
                r.identical ? "PASS" : "FAIL");
    harness.add(r);
    if (!r.identical) return 1;
  }

  if (!(parity_ok && pg_ok)) return 1;
  if (!smoke) {
    // The acceptance gate: sustained updates/sec at least 10x the naive
    // loop, and the multi-day peak bounded.
    if (ratio < 10.0) {
      std::printf("FAIL: rolling/naive ratio %.1fx < 10x gate\n", ratio);
      return 1;
    }
    if (!rss_bounded) return 1;
  }
  return 0;
}
