// Section VII reproduction: Whittle-estimator Hurst parameters and
// Beran goodness-of-fit verdicts for TELNET, FTPDATA, and aggregate
// count processes, plus calibration on exact fGn.
//
// Paper: TELNET traffic is consistent with self-similarity at tens of
// seconds and larger; FTPDATA traces are long-range correlated but
// mostly NOT well-modeled as fractional Gaussian noise (huge lulls give
// a spike at zero that a Gaussian marginal cannot carry); aggregate
// link traffic is the closest to fGn.
#include <cstdio>
#include <vector>

#include "src/core/vt_comparison.hpp"
#include "src/plot/ascii_plot.hpp"
#include "src/rng/rng.hpp"
#include "src/selfsim/fgn.hpp"
#include "src/stats/beran.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/rs_analysis.hpp"
#include "src/stats/variance_time.hpp"
#include "src/synth/synthesizer.hpp"
#include "src/trace/burst.hpp"

using namespace wan;

namespace {

void report_row(const char* label, const std::vector<double>& counts,
                std::vector<std::vector<std::string>>* rows) {
  // Aggregate long series so Whittle stays affordable and we study the
  // tens-of-seconds regime the paper focuses on.
  const std::vector<double> series = stats::aggregate_halvings(counts, 8192);
  if (series.size() < 512) return;
  const auto beran = stats::beran_fgn_test(series);
  const auto vt = stats::variance_time_plot(counts);
  const auto rs = stats::rs_analysis(series);
  rows->push_back(
      {label, plot::fmt(beran.whittle.hurst, 3),
       "[" + plot::fmt(beran.whittle.ci_low, 3) + ", " +
           plot::fmt(beran.whittle.ci_high, 3) + "]",
       plot::fmt(vt.hurst(4, 4000), 3), plot::fmt(rs.hurst(), 3),
       plot::fmt(beran.p_value, 3),
       beran.consistent ? "fGn-consistent" : "NOT fGn"});
}

}  // namespace

int main() {
  std::printf("=== Section VII: Whittle / Beran analysis of count "
              "processes ===\n\n");
  std::vector<std::vector<std::string>> rows;

  // Calibration: exact fGn at known H.
  for (double h : {0.6, 0.8}) {
    rng::Rng rng(1700 + static_cast<std::uint64_t>(h * 100));
    const auto x = selfsim::generate_fgn(rng, 1 << 15, h);
    report_row(h == 0.6 ? "fGn H=0.6 (calib)" : "fGn H=0.8 (calib)", x,
               &rows);
  }

  // TELNET packets (FULL-TEL trace, 0.1 s bins).
  {
    core::VtComparisonConfig cfg;
    cfg.seed = 171;
    const auto cmp = core::run_vt_comparison(cfg);
    report_row("TELNET packets", cmp.counts.at("TRACE"), &rows);
    report_row("TELNET EXP-scheme", cmp.counts.at("EXP"), &rows);
  }

  // FTPDATA byte process from a packet trace (1 s bins).
  {
    auto cfg = synth::lbl_pkt_preset("PKT-FTP", true, 172);
    cfg.hours = 1.0;
    const auto tr = synth::synthesize_packet_trace(cfg);
    const auto ftp = tr.packet_times(trace::Protocol::kFtpData);
    if (ftp.size() > 5000) {
      const auto counts =
          stats::bin_counts(ftp, tr.t_begin(), tr.t_end(), 0.1);
      report_row("FTPDATA packets", counts, &rows);
    }
  }

  // Aggregate all-link trace (0.01 s bins).
  {
    auto cfg = synth::lbl_pkt_preset("PKT-ALL", false, 173);
    const auto tr = synth::synthesize_packet_trace(cfg);
    const auto counts =
        stats::bin_counts(tr.packet_times(), tr.t_begin(), tr.t_end(), 0.01);
    report_row("aggregate link", counts, &rows);
  }

  std::printf("%s\n",
              plot::render_table({"process", "Whittle H", "95% CI", "VT H",
                                  "R/S H", "Beran p", "verdict"},
                                 rows)
                  .c_str());

  std::printf(
      "paper: TELNET consistent with self-similarity at >= tens of "
      "seconds. Note the EXP-scheme\nrow: swapping Tcplib gaps for "
      "exponential kills only the *small-scale* mechanism\n(Appendix C); "
      "the heavy-tailed connection sizes still drive large-scale "
      "correlation via\nthe M/G/inf mechanism (Section VII-C1) — both "
      "mechanisms matter, which is exactly\nthe paper's two-mechanism "
      "account of TELNET self-similarity. Fig. 5 shows where the\n"
      "schemes differ: variance *level* across M in [1, 10^3], not the "
      "coarse-scale H.\n\n");

  // Ablation: Whittle's sensitivity to the aggregation level used.
  std::printf("--- ablation: Whittle H vs pre-aggregation (TELNET trace) "
              "---\n");
  core::VtComparisonConfig cfg;
  cfg.seed = 174;
  const auto cmp = core::run_vt_comparison(cfg);
  for (std::size_t m : {8, 16, 64, 256}) {
    auto agg = stats::aggregate_mean(cmp.counts.at("TRACE"), m);
    if (agg.size() < 256) break;
    const auto w = stats::whittle_fgn(agg);
    std::printf("  M = %3zu (%.1f s bins): H = %.3f +- %.3f\n", m,
                0.1 * static_cast<double>(m), w.hurst, w.stderr_hurst);
  }
  std::printf("(stable H across aggregation levels is the self-similar "
              "signature.)\n");
  return 0;
}
