// Perf bench for the estimation machinery: variance-time, Whittle, and
// R/S serial vs parallel, the exact whole-number variance-time pass
// against the fold it replaced, the Appendix-A A^2 test against its
// comparison-sort reference, serial FFT/periodogram micro-ops, the
// columnar count-process analysis, and the shared-periodogram Hurst
// battery. Appends results to BENCH_perf.json (see bench_harness.hpp);
// rows carry rows/sec + bytes/sec extras where the record width is
// known.
//
// Usage: bench_perf_stats [JSON_PATH] [--smoke]
// --smoke shrinks every input (and runs one rep) so CI can exercise the
// full bench in seconds. The run fails (exit 1) when any row reads
// `identical: NO`, smoke or full (an analyze_columns/* row does when its
// figure CSV differs from analyze_batch's); a full run also fails when
// an analyze_columns/* row's time, as a ratio to the calibration leg's,
// is more than 10% above its latest earlier row's
// (Harness::bound_by_previous).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_harness.hpp"
#include "src/fft/fft.hpp"
#include "src/fft/periodogram.hpp"
#include "src/par/parallel.hpp"
#include "src/rng/rng.hpp"
#include "src/selfsim/fgn.hpp"
#include "src/stats/anderson_darling.hpp"
#include "src/stats/beran.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/descriptive.hpp"
#include "src/stats/gph.hpp"
#include "src/stats/rs_analysis.hpp"
#include "src/stats/variance_time.hpp"
#include "src/stats/whittle.hpp"
#include "src/stream/columnar.hpp"
#include "src/stream/pipeline.hpp"
#include "src/synth/stream_synth.hpp"
#include "src/synth/synthesizer.hpp"

using namespace wan;

namespace {

std::vector<double> noise(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(0.0, 1.0);
  return x;
}

// Whole numbers drawn from Poisson(mean), by Knuth's product of uniforms.
std::vector<double> poisson_counts(std::size_t n, double mean,
                                   std::uint64_t seed) {
  rng::Rng rng(seed);
  const double floor = std::exp(-mean);
  std::vector<double> x(n);
  for (double& v : x) {
    double k = 0.0;
    for (double p = rng.uniform01(); p > floor; p *= rng.uniform01())
      k += 1.0;
    v = k;
  }
  return x;
}

// The A^2 exponentiality test as it was before its probabilities were
// bucket-sorted: std::sort on a copy, then the shared statistic.
stats::AdResult ad_exponential_reference(std::span<const double> x) {
  const double m = stats::mean(x);
  std::vector<double> p(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) p[i] = -std::expm1(-x[i] / m);
  std::sort(p.begin(), p.end());
  stats::AdResult r;
  r.a2 = stats::anderson_darling_from_sorted_probs(p);
  r.a2_modified = r.a2 * (1.0 + 0.6 / static_cast<double>(x.size()));
  return r;
}

bool same_vt(const stats::VarianceTimePlot& a,
             const stats::VarianceTimePlot& b) {
  if (a.points.size() != b.points.size() || a.base_mean != b.base_mean)
    return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].m != b.points[i].m ||
        a.points[i].variance != b.points[i].variance ||
        a.points[i].normalized != b.points[i].normalized ||
        a.points[i].n_blocks != b.points[i].n_blocks)
      return false;
  }
  return true;
}

bool same_whittle(const stats::WhittleResult& a,
                  const stats::WhittleResult& b) {
  return a.hurst == b.hurst && a.scale == b.scale &&
         a.objective == b.objective && a.stderr_hurst == b.stderr_hurst;
}

bool same_rs(const stats::RsAnalysis& a, const stats::RsAnalysis& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].window != b.points[i].window ||
        a.points[i].mean_rs != b.points[i].mean_rs)
      return false;
  }
  return true;
}

// The columnar analysis of an in-memory column table (ColumnTableSource
// + analyze_columns), one leg at 1 thread: min of 9 process-CPU reps,
// each after a rep of bench::calibration_leg(). identical means its
// figure CSV equals analyze_batch's on the same trace, computed outside
// the timed loop. Returns whether the row is within its previous-row
// bound.
bool bench_columns(bench::Harness& harness, const std::string& op,
                   const trace::PacketTrace& tr,
                   const stream::PacketColumns& table,
                   const stream::PipelineOptions& opt) {
  constexpr int kReps = 9;
  const stream::StreamInfo info{tr.name(), tr.t_begin(), tr.t_end()};
  stream::PipelineResult got;
  par::set_thread_count(1);
  const bench::CalibratedMs t = bench::min_cpu_time_calibrated_ms(
      [&] {
        stream::ColumnTableSource src(table, info, opt.chunk_size);
        got = stream::analyze_columns(src, opt);
      },
      kReps);

  bench::BenchResult r;
  r.op = op;
  r.threads = 1;
  r.items = static_cast<double>(tr.size());
  r.unit = "packets";
  r.repeats = kReps;
  r.serial_ms = t.ms;
  r.parallel_ms = t.ms;
  r.throughput = t.ms > 0.0 ? r.items / (t.ms / 1000.0) : 0.0;
  r.identical =
      stream::vt_csv(got) == stream::vt_csv(stream::analyze_batch(tr, opt));
  bench::Harness::add_rates(r, stream::PacketColumns::kPacketColumnBytes);
  r.extra.emplace_back("columnar_table_bytes",
                       std::to_string(table.byte_size()));
  const bool in_bound = harness.bound_by_previous(r, t.calib_ms);
  harness.add(r);
  return in_bound;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  bench::Harness harness(argc, argv);  // skips flags when locating the path
  const int reps = smoke ? 1 : 3;
  constexpr double kSampleBytes = sizeof(double);

  // Variance-time plot over a long count series (per-level tasks).
  {
    const auto x = noise(smoke ? 1 << 14 : 1 << 18, 5);
    stats::VarianceTimePlot serial, parallel;
    harness.compare(
        "variance_time_plot/" + std::to_string(x.size()),
        static_cast<double>(x.size()), "samples",
        [&] { serial = stats::variance_time_plot(x); },
        [&] { parallel = stats::variance_time_plot(x); },
        [&] { return same_vt(serial, parallel); }, reps, kSampleBytes);
  }

  // Whole-number counts shaped like pcap_fine's 7.2M bins of 1 ms
  // (Poisson, mean 0.016). "serial" is the VtAccumulator fold, the pass
  // CountTail ran before; "parallel" is variance_time_plot, which takes
  // its exact one-pass form on such a series. Both run at 1 thread and
  // are timed in process CPU; `identical` means the plots are bit-equal.
  {
    const auto counts = poisson_counts(smoke ? 1 << 16 : 7200000, 0.016, 12);
    const auto levels = stats::default_aggregation_levels(counts.size());
    stats::VarianceTimePlot fold, exact;
    bench::BenchResult row;
    row.op = "variance_time_counts/" + std::to_string(counts.size());
    row.threads = 1;
    row.items = static_cast<double>(counts.size());
    row.unit = "samples";
    row.repeats = harness.repeats(reps);
    par::set_thread_count(1);
    row.serial_ms = bench::min_cpu_time_ms(
        [&] {
          stats::VtAccumulator acc(levels);
          acc.push(counts);
          fold = acc.finish();
        },
        row.repeats);
    row.parallel_ms = bench::min_cpu_time_ms(
        [&] { exact = stats::variance_time_plot(counts); }, row.repeats);
    row.speedup = row.parallel_ms > 0.0 ? row.serial_ms / row.parallel_ms
                                        : 1.0;
    row.throughput = row.parallel_ms > 0.0
                         ? row.items / (row.parallel_ms / 1000.0)
                         : 0.0;
    row.identical = same_vt(fold, exact);
    bench::Harness::add_rates(row, kSampleBytes);
    harness.add(row);
  }

  // The Appendix-A interval test's A^2 kernel at three interval sizes:
  // 60 gaps, 1,556 (the monitor's mean tested interval) and 4,000 (its
  // ALL engine's 60 s interval), on exponential gaps, the test's null.
  // "serial" is ad_exponential_reference, "parallel" ad_test_exponential
  // (bucket sort); each pass tests about a million gaps, at 1 thread,
  // in process CPU. `identical` means every sample's a2 and a2_modified
  // are bit-equal.
  for (const std::size_t n : {60, 1556, 4000}) {
    const std::size_t samples = (smoke ? 20000 : 1000000) / n;
    rng::Rng rng(13);
    std::vector<std::vector<double>> gaps(samples, std::vector<double>(n));
    for (auto& x : gaps)
      for (double& v : x) v = -std::log(rng.uniform01_open_below());
    std::vector<stats::AdResult> ref(samples), got(samples);
    bench::BenchResult row;
    row.op = "ad_test_exponential/" + std::to_string(n);
    row.threads = 1;
    row.items = static_cast<double>(samples * n);
    row.unit = "gaps";
    row.repeats = harness.repeats(reps);
    par::set_thread_count(1);
    row.serial_ms = bench::min_cpu_time_ms(
        [&] {
          for (std::size_t k = 0; k < samples; ++k)
            ref[k] = ad_exponential_reference(gaps[k]);
        },
        row.repeats);
    row.parallel_ms = bench::min_cpu_time_ms(
        [&] {
          for (std::size_t k = 0; k < samples; ++k)
            got[k] = stats::ad_test_exponential(gaps[k]);
        },
        row.repeats);
    row.speedup = row.parallel_ms > 0.0 ? row.serial_ms / row.parallel_ms
                                        : 1.0;
    row.throughput = row.parallel_ms > 0.0
                         ? row.items / (row.parallel_ms / 1000.0)
                         : 0.0;
    row.identical = true;
    for (std::size_t k = 0; k < samples; ++k)
      row.identical = row.identical &&
                      std::bit_cast<std::uint64_t>(ref[k].a2) ==
                          std::bit_cast<std::uint64_t>(got[k].a2) &&
                      std::bit_cast<std::uint64_t>(ref[k].a2_modified) ==
                          std::bit_cast<std::uint64_t>(got[k].a2_modified);
    row.extra.emplace_back("samples", std::to_string(samples));
    bench::Harness::add_rates(row, kSampleBytes);
    harness.add(row);
  }

  // Whittle fGn estimation (chunked likelihood sums + grid search).
  {
    rng::Rng rng(6);
    const auto x = selfsim::generate_fgn(rng, smoke ? 1 << 12 : 1 << 14, 0.8);
    stats::WhittleResult serial, parallel;
    harness.compare(
        "whittle_fgn/" + std::to_string(x.size()),
        static_cast<double>(x.size()), "samples",
        [&] { serial = stats::whittle_fgn(x); },
        [&] { parallel = stats::whittle_fgn(x); },
        [&] { return same_whittle(serial, parallel); }, reps, kSampleBytes);
  }

  // fGn density cache before/after: the reference path re-evaluates
  // fgn_spectral_density at every ordinate per candidate H ("serial"
  // column), the grid path interpolates the smooth part from 513 nodes
  // ("parallel" column). Both run at 1 thread so the row isolates the
  // cache itself; `identical` records that the fitted H agrees to 1e-4.
  {
    rng::Rng rng(6);
    const auto x = selfsim::generate_fgn(rng, smoke ? 1 << 12 : 1 << 14, 0.8);
    const auto pg = fft::periodogram(x);
    stats::WhittleResult direct, grid;
    bench::BenchResult row;
    row.op = "whittle_fgn_density_cache/" + std::to_string(x.size());
    row.threads = 1;
    row.items = static_cast<double>(x.size());
    row.unit = "samples";
    par::set_thread_count(1);
    row.serial_ms = bench::min_time_ms(
        [&] { direct = stats::whittle_fgn_direct_from_periodogram(pg); },
        reps);
    row.parallel_ms = bench::min_time_ms(
        [&] { grid = stats::whittle_fgn_from_periodogram(pg); }, reps);
    row.speedup = row.parallel_ms > 0.0 ? row.serial_ms / row.parallel_ms
                                        : 1.0;
    row.throughput = row.parallel_ms > 0.0
                         ? row.items / (row.parallel_ms / 1000.0)
                         : 0.0;
    row.identical = std::abs(direct.hurst - grid.hurst) < 1e-4;
    row.extra.emplace_back("density_cache", "\"direct_vs_grid\"");
    bench::Harness::add_rates(row, kSampleBytes);
    harness.add(row);
  }

  // Shared-periodogram Hurst battery: "serial" runs GPH + Beran/Whittle
  // (fGn) + Whittle (fARIMA) each computing its own periodogram of the
  // same series (the pre-reuse pattern); "parallel" computes one
  // periodogram and feeds the *_from_periodogram entry points. The same
  // pg bits flow through, so the estimates must be exactly equal.
  {
    rng::Rng rng(11);
    const auto x = selfsim::generate_fgn(rng, smoke ? 1 << 12 : 1 << 14, 0.8);
    stats::GphResult g1, g2;
    stats::BeranResult b1, b2;
    stats::WhittleResult f1, f2;
    bench::BenchResult row;
    row.op = "whittle_periodogram_reuse/" + std::to_string(x.size());
    row.threads = 1;
    row.items = static_cast<double>(x.size());
    row.unit = "samples";
    par::set_thread_count(1);
    row.serial_ms = bench::min_time_ms(
        [&] {
          g1 = stats::gph_estimator(x);
          b1 = stats::beran_fgn_test(x);
          f1 = stats::whittle_farima(x);
        },
        reps);
    row.parallel_ms = bench::min_time_ms(
        [&] {
          const auto pg = fft::periodogram(x);
          g2 = stats::gph_from_periodogram(pg, x.size());
          b2 = stats::beran_fgn_test_from_periodogram(pg, x.size());
          f2 = stats::whittle_farima_from_periodogram(pg);
        },
        reps);
    row.speedup = row.parallel_ms > 0.0 ? row.serial_ms / row.parallel_ms
                                        : 1.0;
    row.throughput = row.parallel_ms > 0.0
                         ? row.items / (row.parallel_ms / 1000.0)
                         : 0.0;
    row.identical = g1.hurst == g2.hurst && g1.d == g2.d &&
                    b1.statistic == b2.statistic &&
                    b1.p_value == b2.p_value &&
                    same_whittle(b1.whittle, b2.whittle) &&
                    same_whittle(f1, f2);
    row.extra.emplace_back("periodogram_reuse", "\"3_estimators_1_fft\"");
    bench::Harness::add_rates(row, kSampleBytes);
    harness.add(row);
  }

  // Whittle at 2^18 — the ROADMAP's carried-over long-series target.
  // First the single fit (the density grid cache already pays for the
  // length; the parallel column is the chunked objective reduction),
  // then the aggregation-stability sweep two ways: "serial" re-runs
  // aggregate_mean + FFT + a cold 21-point search per level, "parallel"
  // derives every level's periodogram from one FFT (SpectrumCascade)
  // and warm-starts each search from the previous level's H. Different
  // arithmetic, same minimizer: `identical` records agreement to 1e-4.
  {
    rng::Rng rng(6);
    const auto x = selfsim::generate_fgn(rng, smoke ? 1 << 13 : 1 << 18, 0.8);
    const auto pg = fft::periodogram(x);
    stats::WhittleResult serial, parallel;
    harness.compare(
        "whittle_fgn/" + std::to_string(x.size()),
        static_cast<double>(x.size()), "samples",
        [&] { serial = stats::whittle_fgn_from_periodogram(pg); },
        [&] { parallel = stats::whittle_fgn_from_periodogram(pg); },
        [&] { return same_whittle(serial, parallel); }, reps, kSampleBytes);

    const std::size_t levels = 4;  // M = 1, 2, 4, 8, 16
    std::vector<double> naive_h, shared_h;
    bench::BenchResult row;
    row.op = "whittle_sweep/" + std::to_string(x.size());
    row.threads = 1;
    row.items = static_cast<double>(x.size());
    row.unit = "samples";
    par::set_thread_count(1);
    row.serial_ms = bench::min_time_ms(
        [&] {
          naive_h.clear();
          std::vector<double> s(x.begin(), x.end());
          for (std::size_t k = 0;; ++k) {
            naive_h.push_back(
                stats::whittle_fgn_from_periodogram(fft::periodogram(s))
                    .hurst);
            if (k == levels) break;
            s = stats::aggregate_mean(s, 2);
          }
        },
        reps);
    row.parallel_ms = bench::min_time_ms(
        [&] {
          shared_h.clear();
          fft::SpectrumCascade cascade(x);
          stats::WhittleOptions warm;
          for (std::size_t k = 0;; ++k) {
            const auto fit =
                stats::whittle_fgn_from_periodogram(cascade.current(), warm);
            shared_h.push_back(fit.hurst);
            warm.hurst_hint = fit.hurst;
            if (k == levels) break;
            cascade.halve();
          }
        },
        reps);
    row.speedup = row.parallel_ms > 0.0 ? row.serial_ms / row.parallel_ms
                                        : 1.0;
    row.throughput = row.parallel_ms > 0.0
                         ? row.items / (row.parallel_ms / 1000.0)
                         : 0.0;
    double max_dh = 0.0;
    for (std::size_t k = 0; k <= levels; ++k)
      max_dh = std::max(max_dh, std::abs(naive_h[k] - shared_h[k]));
    row.identical = max_dh < 1e-4;
    row.extra.emplace_back("sweep", "\"shared_spectrum_warm_start\"");
    row.extra.emplace_back("sweep_levels",
                           std::to_string(levels + 1));
    bench::Harness::add_rates(row, kSampleBytes);
    harness.add(row);
  }

  // R/S pox-plot statistics (per-window-size tasks).
  {
    rng::Rng rng(7);
    const auto x = selfsim::generate_fgn(rng, smoke ? 1 << 13 : 1 << 17, 0.8);
    stats::RsAnalysis serial, parallel;
    harness.compare(
        "rs_analysis/" + std::to_string(x.size()),
        static_cast<double>(x.size()), "samples",
        [&] { serial = stats::rs_analysis(x); },
        [&] { parallel = stats::rs_analysis(x); },
        [&] { return same_rs(serial, parallel); }, reps, kSampleBytes);
  }

  // Serial micro-ops: FFT and periodogram costs underpinning the above.
  {
    const std::size_t n = smoke ? 1 << 12 : 1 << 16;
    std::vector<fft::cd> x(n);
    rng::Rng rng(8);
    for (auto& v : x) v = fft::cd(rng.uniform01(), rng.uniform01());
    harness.serial_only(
        "fft_pow2/" + std::to_string(n), static_cast<double>(n), "samples",
        [&] {
          auto copy = x;
          fft::fft_pow2(copy, false);
          if (copy[0].real() > 1e30) std::printf("x");
        },
        reps, static_cast<double>(sizeof(fft::cd)));
    const auto y = noise(n, 9);
    harness.serial_only(
        "periodogram/" + std::to_string(n), static_cast<double>(n),
        "samples",
        [&] {
          auto pg = fft::periodogram(y);
          if (pg.ordinate.empty()) std::printf("x");
        },
        reps, kSampleBytes);
  }

  // The columnar count-process analysis over a synthesized packet
  // trace, unfiltered and protocol-filtered (where selection vectors
  // do the work), each checked against analyze_batch.
  bool columns_in_bound = true;
  {
    auto cfg = synth::lbl_pkt_preset("PERF", /*tcp_only=*/false, 42);
    cfg.hours = smoke ? 0.1 : 2.0;
    synth::StreamingPacketSynthesizer synth_src(cfg);
    const trace::PacketTrace tr = stream::collect(synth_src);
    const stream::PacketColumns table = stream::to_columns(tr.records());

    stream::PipelineOptions opt;  // no filters
    opt.bin = 1.0;  // Section VII's count resolution (as bench_sec7 uses);
                    // keeps the row a packet-stage measurement rather
                    // than a bin-stage one
    const bool unfiltered_ok =
        bench_columns(harness, "analyze_columns/unfiltered", tr, table, opt);

    stream::PipelineOptions filtered = opt;
    filtered.protocol = trace::Protocol::kTelnet;
    filtered.orig_data_only = true;
    const bool filtered_ok = bench_columns(
        harness, "analyze_columns/telnet-orig-data", tr, table, filtered);
    columns_in_bound = unfiltered_ok && filtered_ok;
  }

  if (!harness.all_identical()) {
    std::fprintf(stderr, "FAIL: a row's outputs differ (identical: NO)\n");
    return 1;
  }
  // A smoke trace takes milliseconds to analyze, so its time is noise
  // and only the figure CSVs count.
  if (!smoke && !columns_in_bound) {
    std::fprintf(stderr,
                 "FAIL: an analyze_columns row is more than %.0f%% above "
                 "its previous ratio to the calibration leg\n",
                 (bench::Harness::kMaxSlowdown - 1.0) * 100.0);
    return 1;
  }
  return 0;
}
