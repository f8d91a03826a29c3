#include "src/stream/window_analyzer.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "src/stats/counting.hpp"
#include "src/stream/pipeline.hpp"

namespace wan::stream {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Variance-time H of one window's counts, or NaN when the window is
/// too sparse to fit (fewer than two levels with nonzero variance —
/// e.g. a tracked protocol that went quiet under a running monitor).
/// A full-trace analysis still throws through variance_time_plot
/// directly; per-window sparsity must degrade, not kill the stream.
double vt_hurst_or_nan(std::span<const double> counts) {
  try {
    return stats::variance_time_plot(counts).hurst();
  } catch (const std::invalid_argument&) {
    return std::numeric_limits<double>::quiet_NaN();
  }
}

/// num / den as a whole positive count, to the relative tolerance that
/// separates "user meant a multiple" from "user picked misaligned
/// spans". Throws with both operands in the message otherwise.
std::size_t exact_ratio(double num, double den, const char* num_name,
                        const char* den_name) {
  const double r = num / den;
  const double rounded = std::round(r);
  if (!(rounded >= 1.0) || std::abs(r - rounded) > 1e-6 * rounded) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "windowed analysis: %s (%g s) must be a whole positive "
                  "multiple of %s (%g s); got ratio %g",
                  num_name, num, den_name, den, r);
    throw std::invalid_argument(buf);
  }
  return static_cast<std::size_t>(rounded);
}

[[noreturn]] void fail(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  throw std::invalid_argument(buf);
}

}  // namespace

WindowGeometry window_geometry(const WindowedOptions& options) {
  if (!(options.bin > 0.0))
    fail("windowed analysis: bin width must be > 0 (got %g)", options.bin);
  if (!(options.window > 0.0))
    fail("windowed analysis: --window must be set to a positive span "
         "in seconds (got %g)",
         options.window);
  const double slide = options.slide == 0.0 ? options.window : options.slide;
  if (!(slide > 0.0))
    fail("windowed analysis: --slide must be > 0 (got %g)", slide);

  WindowGeometry g;
  g.window_bins = exact_ratio(options.window, options.bin, "--window", "--bin");
  g.slide_bins = exact_ratio(slide, options.bin, "--slide", "--bin");
  if (g.slide_bins > g.window_bins || g.window_bins % g.slide_bins != 0)
    fail("windowed analysis: --slide (%zu bins) must divide --window "
         "(%zu bins) so every window starts on a slide boundary",
         g.slide_bins, g.window_bins);
  if (g.window_bins < 16)
    fail("windowed analysis: --window spans only %zu bins of --bin; the "
         "estimators need at least 16 (widen the window or narrow the bin)",
         g.window_bins);

  const std::size_t align = std::size_t{1} << options.sweep_levels;
  if (g.slide_bins % align != 0)
    fail("windowed analysis: --slide (%zu bins) must be divisible by "
         "2^sweep_levels (%zu) so every aggregation level advances by "
         "whole samples per slide",
         g.slide_bins, align);
  const std::size_t seg =
      options.segment_bins != 0 ? options.segment_bins : g.slide_bins / align;
  if (seg < 4 || seg % 2 != 0) {
    if (options.segment_bins != 0)
      fail("windowed analysis: --segment-bins must be even and >= 4 "
           "(got %zu) — the periodogram frequency grid needs an even "
           "segment length",
           seg);
    fail("windowed analysis: derived segment length %zu bins "
         "(slide / 2^sweep_levels) is not even and >= 4; pass "
         "--segment-bins explicitly or widen --slide",
         seg);
  }
  if (g.slide_bins % (seg * align) != 0)
    fail("windowed analysis: segment length x 2^sweep_levels (%zu x %zu "
         "bins) must divide --slide (%zu bins) so each slide completes "
         "whole segments at every level",
         seg, align, g.slide_bins);
  g.segment_bins = seg;
  g.segments_per_window = g.window_bins / seg;

  if (options.poisson_interval < 0.0)
    fail("windowed analysis: --poisson-interval must be >= 0 (got %g)",
         options.poisson_interval);
  if (options.poisson_interval > 0.0) {
    g.intervals_per_slide = exact_ratio(slide, options.poisson_interval,
                                        "--slide", "--poisson-interval");
    g.window_intervals = exact_ratio(options.window, options.poisson_interval,
                                     "--window", "--poisson-interval");
  }
  return g;
}

WindowedAnalyzer::WindowedAnalyzer(
    const WindowedOptions& options, double t_begin,
    std::function<void(const WindowReport&)> sink,
    std::shared_ptr<const stats::WhittleRefitter> refitter)
    : options_(options),
      geometry_(window_geometry(options)),
      t_begin_(t_begin),
      sink_(std::move(sink)),
      counts_(t_begin, options.bin, geometry_.window_bins),
      spectrum_(geometry_.segment_bins, geometry_.segments_per_window,
                options.sweep_levels),
      moments_(geometry_.slide_bins, geometry_.window_bins / geometry_.slide_bins),
      burst_(geometry_.slide_bins, geometry_.window_bins / geometry_.slide_bins),
      refitter_(std::move(refitter)) {
  if (options_.poisson_interval > 0.0) {
    stats::PoissonTestConfig config;
    config.interval_length = options_.poisson_interval;
    poisson_ = std::make_unique<stats::WindowedPoissonTest>(
        config, t_begin, geometry_.window_intervals);
  }
  counts_.set_bin_observer([this](double count) { on_bin_complete(count); });
}

WindowedAnalyzer::~WindowedAnalyzer() = default;

void WindowedAnalyzer::push_times(std::span<const double> times) {
  for (double t : times) {
    // counts_ first: a slide-boundary report fires from inside add()
    // BEFORE the event reaches the Poisson ring, so the report's
    // interval window cannot be advanced past the count window by an
    // event that belongs to the next slide.
    counts_.add(t);
    if (poisson_) poisson_->push(t);
  }
}

void WindowedAnalyzer::finish(double t_end) {
  // Complete every whole bin the stream span covers. The +1e-9 bin
  // tolerance keeps a t_end sitting a rounding error below a bin edge
  // from dropping the final bin (and with it the final report). A
  // non-finite t_end, or one 2^64 bins out, throws (stats::grid_index).
  if (t_end < t_begin_) return;
  const std::uint64_t idx =
      stats::grid_index(t_end, t_begin_, options_.bin, 1e-9);
  // Midpoint of bin idx: advance_to completes bins [0, idx) and cannot
  // itself fall foul of edge rounding.
  counts_.advance_to(t_begin_ +
                     (static_cast<double>(idx) + 0.5) * options_.bin);
}

void WindowedAnalyzer::on_bin_complete(double count) {
  spectrum_.push_samples(std::span<const double>(&count, 1));
  moments_.push(count);
  burst_.push(count);
  ++bins_done_;
  if (bins_done_ >= geometry_.window_bins &&
      bins_done_ % geometry_.slide_bins == 0)
    emit_report();
}

void WindowedAnalyzer::emit_report() {
  WindowReport report;
  report.t1 = t_begin_ + static_cast<double>(bins_done_) * options_.bin;
  report.t0 =
      t_begin_ +
      static_cast<double>(bins_done_ - geometry_.window_bins) * options_.bin;

  counts_.window_counts(scratch_counts_);
  double total = 0.0;
  for (double c : scratch_counts_) total += c;  // exact: small-integer adds
  report.packets = static_cast<std::uint64_t>(std::llround(total));

  const stats::MomentAccumulator moments = moments_.merged();
  report.mean_count = moments.mean();
  report.var_count = moments.variance_population();
  const stats::BurstLull bl = burst_.merged().finish();
  report.mean_burst_bins = bl.mean_burst_bins();
  report.mean_lull_bins = bl.mean_lull_bins();
  report.vt_hurst = vt_hurst_or_nan(scratch_counts_);

  const fft::Periodogram base = spectrum_.ring(0).finish();
  if (!refitter_)
    refitter_ = std::make_shared<stats::WhittleRefitter>(base.frequency);

  stats::WhittleOptions whittle_options;
  if (last_hurst_) {
    whittle_options.hurst_hint = *last_hurst_;
    report.whittle_warm = true;
  }
  report.whittle = refitter_->fit(base, whittle_options);
  last_hurst_ = report.whittle.hurst;

  if (options_.sweep_levels > 0) {
    report.sweep_hurst.reserve(options_.sweep_levels + 1);
    report.sweep_hurst.push_back(report.whittle.hurst);
    double hint = report.whittle.hurst;
    for (std::size_t level = 1; level <= options_.sweep_levels; ++level) {
      stats::WhittleOptions level_options;
      level_options.hurst_hint = hint;
      const stats::WhittleResult fit =
          refitter_->fit(spectrum_.ring(level).finish(), level_options);
      report.sweep_hurst.push_back(fit.hurst);
      hint = fit.hurst;
    }
  }

  if (poisson_) {
    // Interval index the window ends on — exact integer arithmetic, so
    // the advance cannot land on the wrong side of an interval edge.
    const std::uint64_t target =
        (bins_done_ / geometry_.slide_bins) * geometry_.intervals_per_slide;
    poisson_->advance_to(t_begin_ + (static_cast<double>(target) + 0.5) *
                                        options_.poisson_interval);
    report.poisson = poisson_->result();
  }

  ++reports_;
  sink_(report);
}

std::vector<WindowReport> analyze_windowed(PacketColumnSource& source,
                                           const WindowedOptions& options) {
  PipelineOptions filters;
  filters.protocol = options.protocol;
  ColumnFilterStack src(source, filters);

  const StreamInfo info = src.info();
  const WindowGeometry geometry = window_geometry(options);
  const std::uint64_t stream_bins =
      info.t_end < info.t_begin
          ? 0
          : stats::grid_index(info.t_end, info.t_begin, options.bin, 1e-9);
  if (stream_bins < geometry.window_bins) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "windowed analysis: stream spans %llu whole bins but one "
                  "window needs %zu — shorten --window or analyze a longer "
                  "stream",
                  static_cast<unsigned long long>(stream_bins),
                  geometry.window_bins);
    throw std::invalid_argument(buf);
  }

  std::vector<WindowReport> reports;
  WindowedAnalyzer engine(
      options, info.t_begin,
      [&reports](const WindowReport& r) { reports.push_back(r); });
  PacketColumns chunk;
  while (src.next(chunk))
    engine.push_times(std::span<const double>(chunk.time));
  engine.finish(info.t_end);
  return reports;
}

WindowReport analyze_window_counts(std::span<const double> counts, double t0,
                                   const WindowedOptions& options,
                                   std::uint64_t packets) {
  const WindowGeometry geometry = window_geometry(options);
  if (counts.size() != geometry.window_bins) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "analyze_window_counts: got %zu bins, geometry says a "
                  "window is %zu",
                  counts.size(), geometry.window_bins);
    throw std::invalid_argument(buf);
  }

  WindowReport report;
  report.t0 = t0;
  report.t1 = t0 + options.window;
  report.packets = packets;

  stats::MomentAccumulator moments;
  moments.push(counts);
  report.mean_count = moments.mean();
  report.var_count = moments.variance_population();
  const stats::BurstLull bl = stats::burst_lull_structure(counts);
  report.mean_burst_bins = bl.mean_burst_bins();
  report.mean_lull_bins = bl.mean_lull_bins();
  report.vt_hurst = vt_hurst_or_nan(counts);

  // Cold Whittle fits per level; the level series descends by repeated
  // pairwise means — the arithmetic the rolling cascade replicates
  // bit for bit (NOT one aggregate_mean(counts, 2^l), whose block sums
  // group the additions differently).
  std::vector<double> series(counts.begin(), counts.end());
  for (std::size_t level = 0; level <= options.sweep_levels; ++level) {
    if (level > 0) series = stats::aggregate_mean(series, 2);
    fft::AveragedPeriodogram averaged(geometry.segment_bins);
    for (std::size_t s = 0; s + geometry.segment_bins <= series.size();
         s += geometry.segment_bins)
      averaged.push(std::span<const double>(series).subspan(
          s, geometry.segment_bins));
    const stats::WhittleResult fit =
        stats::whittle_fgn_from_periodogram(averaged.finish());
    if (level == 0) report.whittle = fit;
    if (options.sweep_levels > 0) report.sweep_hurst.push_back(fit.hurst);
  }
  return report;
}

WindowReport analyze_window_batch(std::span<const double> times, double t0,
                                  const WindowedOptions& options) {
  const WindowGeometry geometry = window_geometry(options);
  std::vector<double> counts(geometry.window_bins, 0.0);
  std::uint64_t packets = 0;
  for (double t : times) {
    // Negated compares: NaN and +inf are skipped, never converted.
    if (!(t >= t0)) continue;
    const double q = (t - t0) / options.bin;
    if (!(q < static_cast<double>(counts.size()))) continue;
    counts[static_cast<std::size_t>(q)] += 1.0;
    ++packets;
  }
  WindowReport report = analyze_window_counts(counts, t0, options, packets);
  if (options.poisson_interval > 0.0) {
    stats::PoissonTestConfig config;
    config.interval_length = options.poisson_interval;
    report.poisson = stats::test_poisson_arrivals(times, config, t0,
                                                  t0 + options.window);
  }
  return report;
}

std::string to_string(const WindowReport& report) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "[%10.2f, %10.2f) pkts=%llu mean=%.4g var=%.4g "
                "burst=%.3g lull=%.3g H_vt=%.4f H_w=%.4f+-%.4f%s",
                report.t0, report.t1,
                static_cast<unsigned long long>(report.packets),
                report.mean_count, report.var_count, report.mean_burst_bins,
                report.mean_lull_bins, report.vt_hurst, report.whittle.hurst,
                report.whittle.stderr_hurst,
                report.whittle_warm ? " (warm)" : "");
  std::string out = buf;
  if (!report.sweep_hurst.empty()) {
    out += " sweep=";
    for (std::size_t i = 0; i < report.sweep_hurst.size(); ++i) {
      if (i > 0) out += '/';
      std::snprintf(buf, sizeof(buf), "%.3f", report.sweep_hurst[i]);
      out += buf;
    }
  }
  if (report.poisson) {
    out += " | ";
    out += to_string(*report.poisson);
  }
  return out;
}

std::string window_csv_header() {
  return "t0,t1,packets,mean_count,var_count,mean_burst_bins,mean_lull_bins,"
         "vt_hurst,whittle_hurst,whittle_stderr,whittle_warm,sweep_hurst,"
         "poisson_frac_exp,poisson_frac_indep,poisson_verdict\n";
}

std::string window_csv_row(const WindowReport& report) {
  std::string out = fmt_double(report.t0) + ',' + fmt_double(report.t1) + ',' +
                    std::to_string(report.packets) + ',' +
                    fmt_double(report.mean_count) + ',' +
                    fmt_double(report.var_count) + ',' +
                    fmt_double(report.mean_burst_bins) + ',' +
                    fmt_double(report.mean_lull_bins) + ',' +
                    fmt_double(report.vt_hurst) + ',' +
                    fmt_double(report.whittle.hurst) + ',' +
                    fmt_double(report.whittle.stderr_hurst) + ',' +
                    (report.whittle_warm ? "1" : "0") + ',';
  for (std::size_t i = 0; i < report.sweep_hurst.size(); ++i) {
    if (i > 0) out += ';';
    out += fmt_double(report.sweep_hurst[i]);
  }
  out += ',';
  if (report.poisson) {
    out += fmt_double(report.poisson->frac_pass_exponential) + ',' +
           fmt_double(report.poisson->frac_pass_independence) + ',' +
           (report.poisson->poisson ? "poisson" : "not-poisson");
  } else {
    out += ",,";
  }
  out += '\n';
  return out;
}

}  // namespace wan::stream
