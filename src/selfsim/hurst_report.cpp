#include "src/selfsim/hurst_report.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "src/fft/periodogram.hpp"
#include "src/stats/counting.hpp"

namespace wan::selfsim {

double HurstReport::consensus() const {
  std::vector<double> e = {vt_hurst, rs_hurst, gph_hurst, whittle_fgn_hurst,
                           whittle_farima_hurst};
  std::sort(e.begin(), e.end());
  return e[e.size() / 2];
}

std::string HurstReport::to_string() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "H estimates: VT %.3f | R/S %.3f | GPH %.3f | Whittle-fGn %.3f "
      "(+-%.3f) | Whittle-fARIMA %.3f\n"
      "consensus %.3f; Beran p = %.3f -> %s",
      vt_hurst, rs_hurst, gph_hurst, whittle_fgn_hurst, whittle_fgn_stderr,
      whittle_farima_hurst, consensus(), beran_p_value,
      fgn_consistent ? "consistent with fGn" : "NOT fGn");
  std::string out = buf;
  if (whittle_sweep.size() > 1) {
    out += "\nWhittle H by aggregation:";
    for (const WhittleLevelFit& level : whittle_sweep) {
      std::snprintf(buf, sizeof(buf), " M=%zu %.3f", level.aggregation,
                    level.hurst);
      out += buf;
    }
  }
  return out;
}

namespace {

void require_length(std::span<const double> counts) {
  if (counts.size() < 512)
    throw std::invalid_argument("hurst_report: need >= 512 observations");
}

}  // namespace

HurstReport hurst_report(std::span<const double> counts,
                         const HurstReportConfig& config) {
  require_length(counts);
  // vt_hurst fits only the levels in [vt_m_lo, vt_m_hi], and a level's
  // point does not depend on which other levels are plotted, so only
  // those are plotted. (If none is in range, the empty list plots the
  // default levels, and the fit throws as it would on the full plot.)
  std::vector<std::size_t> levels;
  for (std::size_t m : stats::default_aggregation_levels(counts.size()))
    if (m >= config.vt_m_lo && m <= config.vt_m_hi) levels.push_back(m);
  return hurst_report(counts, stats::variance_time_plot(counts, levels),
                      config);
}

HurstReport hurst_report(std::span<const double> counts,
                         const stats::VarianceTimePlot& vt,
                         const HurstReportConfig& config) {
  require_length(counts);

  HurstReport out;
  out.vt_hurst = vt.hurst(config.vt_m_lo, config.vt_m_hi);

  // Aggregate for the frequency-domain and R/S estimators.
  const std::vector<double> series =
      stats::aggregate_halvings(counts, config.max_series_length);

  out.rs_hurst = stats::rs_analysis(series).hurst();

  // One FFT serves every spectral consumer: the cascade's level-0
  // periodogram is bitwise the one fft::periodogram(series) returns, and
  // it flows through GPH, the Beran/Whittle-fGn fit and Whittle-fARIMA
  // unchanged; the Whittle stability sweep below then derives each
  // aggregated level's periodogram from the same spectrum algebraically
  // instead of re-running an FFT per level.
  fft::SpectrumCascade cascade(series);
  const auto pg = cascade.current();
  out.gph_hurst = stats::gph_from_periodogram(pg, series.size()).hurst;

  const auto beran =
      stats::beran_fgn_test_from_periodogram(pg, series.size(), config.alpha);
  out.whittle_fgn_hurst = beran.whittle.hurst;
  out.whittle_fgn_stderr = beran.whittle.stderr_hurst;
  out.beran_p_value = beran.p_value;
  out.fgn_consistent = beran.consistent;

  out.whittle_farima_hurst = stats::whittle_farima_from_periodogram(pg).hurst;

  // Aggregation-stability sweep: re-fit Whittle-fGn at 2x, 4x, ...
  // aggregations, each level's search warm-started from the previous
  // level's H (a self-similar series keeps H nearly constant across
  // levels, so the hint brackets in 3 objective evaluations).
  if (config.whittle_sweep_levels > 0) {
    out.whittle_sweep.push_back({1, cascade.length(), out.whittle_fgn_hurst,
                                 out.whittle_fgn_stderr});
    for (std::size_t k = 0; k < config.whittle_sweep_levels; ++k) {
      if (!cascade.can_halve() || cascade.length() / 2 < 512) break;
      cascade.halve();
      stats::WhittleOptions warm;
      warm.hurst_hint = out.whittle_sweep.back().hurst;
      const auto fit =
          stats::whittle_fgn_from_periodogram(cascade.current(), warm);
      out.whittle_sweep.push_back(
          {cascade.factor(), cascade.length(), fit.hurst, fit.stderr_hurst});
    }
  }
  return out;
}

}  // namespace wan::selfsim
