// One-call Hurst estimation battery: every estimator the paper uses (or
// that became standard right after it) applied to one count process,
// with the Beran goodness-of-fit verdict. This is the public entry point
// for "is this traffic self-similar, and with what H?".
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/stats/beran.hpp"
#include "src/stats/gph.hpp"
#include "src/stats/rs_analysis.hpp"
#include "src/stats/variance_time.hpp"
#include "src/stats/whittle.hpp"

namespace wan::selfsim {

/// One level of the Whittle aggregation-stability sweep.
struct WhittleLevelFit {
  std::size_t aggregation = 1;   ///< block size relative to the analysis series
  std::size_t bins = 0;          ///< series length at this level
  double hurst = 0.5;
  double stderr_hurst = 0.0;
};

struct HurstReport {
  double vt_hurst = 0.5;        ///< variance-time slope estimate
  double rs_hurst = 0.5;        ///< rescaled-range estimate
  double gph_hurst = 0.5;       ///< log-periodogram estimate
  double whittle_fgn_hurst = 0.5;
  double whittle_fgn_stderr = 0.0;
  double whittle_farima_hurst = 0.5;
  double beran_p_value = 1.0;
  bool fgn_consistent = false;  ///< Beran verdict at 5%

  /// Whittle-fGn re-fit at successive 2x aggregations of the analysis
  /// series (paper Section VII: stable H across levels is the
  /// self-similar signature; a drifting H says otherwise). Entry 0 is
  /// the unaggregated fit above. All levels share one FFT through
  /// fft::SpectrumCascade and each fit warm-starts from the previous
  /// level's H, so the sweep costs far less than independent fits.
  std::vector<WhittleLevelFit> whittle_sweep;

  /// Median of the point estimates — a robust single answer.
  double consensus() const;

  /// Multi-line human-readable rendering.
  std::string to_string() const;
};

struct HurstReportConfig {
  /// Frequency-domain estimators run on a series aggregated down to at
  /// most this length (keeps Whittle affordable on multi-hour traces).
  std::size_t max_series_length = 8192;
  std::size_t vt_m_lo = 4;       ///< variance-time fit range
  std::size_t vt_m_hi = 4000;
  double alpha = 0.05;           ///< Beran significance level
  /// Extra 2x aggregation levels for the Whittle stability sweep
  /// (0 disables the sweep entirely, leaving whittle_sweep empty). The
  /// sweep also stops early when a level would fall below 512 bins or
  /// its length stops being a multiple of 4 (SpectrumCascade::can_halve).
  std::size_t whittle_sweep_levels = 3;
};

/// Runs the battery on a count series (length >= 512). It plots only the
/// default variance-time levels in [vt_m_lo, vt_m_hi], the ones vt_hurst
/// fits, and reports the same bits as the two-argument form given the
/// full variance_time_plot(counts).
HurstReport hurst_report(std::span<const double> counts,
                         const HurstReportConfig& config = {});

/// Same, with `vt` the variance_time_plot(counts) the caller already
/// holds (stream::PipelineResult::vt is one), so the series is not
/// plotted a second time.
HurstReport hurst_report(std::span<const double> counts,
                         const stats::VarianceTimePlot& vt,
                         const HurstReportConfig& config = {});

}  // namespace wan::selfsim
