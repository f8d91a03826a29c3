// Example: exploring TELNET burstiness across time scales with
// variance-time plots — the Section IV/V workflow as an application.
// Generates a reference trace, re-synthesizes it under all three
// interarrival schemes, prints the variance-time table, and runs the
// Hurst estimators on the result.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/vt_comparison.hpp"
#include "src/plot/ascii_plot.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/rs_analysis.hpp"
#include "src/stats/whittle.hpp"

using namespace wan;

int main(int argc, char** argv) {
  core::VtComparisonConfig cfg;
  cfg.conns_per_hour = argc > 1 ? std::atof(argv[1]) : 136.5;
  cfg.seed = argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 7;
  std::printf("TELNET variance-time explorer: %.1f conns/hour, seed %llu\n\n",
              cfg.conns_per_hour,
              static_cast<unsigned long long>(cfg.seed));

  const auto cmp = core::run_vt_comparison(cfg);
  std::printf("synthesized %zu connections over two hours\n\n",
              cmp.n_connections);

  std::vector<std::vector<std::string>> rows;
  for (const auto& p : cmp.vt.at("TRACE").points) {
    const auto near = [&](const std::string& k) {
      for (const auto& q : cmp.vt.at(k).points) {
        if (q.m == p.m) return q.normalized;
      }
      return 0.0;
    };
    rows.push_back({std::to_string(p.m), plot::fmt(p.normalized, 4),
                    plot::fmt(near("TCPLIB"), 4), plot::fmt(near("EXP"), 4),
                    plot::fmt(near("VAR-EXP"), 4)});
  }
  std::printf("%s\n",
              plot::render_table(
                  {"M", "trace", "TCPLIB", "EXP", "VAR-EXP"}, rows)
                  .c_str());

  for (const auto& [name, vt] : cmp.vt) {
    const auto fit = vt.fit_slope(1, 300);
    std::printf("%-8s: VT slope %+6.3f -> H %.3f", name.c_str(), fit.slope,
                1.0 + fit.slope / 2.0);
    // Cross-check with Whittle on an aggregated version of the counts.
    const auto agg = stats::aggregate_halvings(cmp.counts.at(name), 4096);
    const auto w = stats::whittle_fgn(agg);
    std::printf("   Whittle H %.3f +- %.3f\n", w.hurst, w.stderr_hurst);
  }
  std::printf("\nreading: TRACE/TCPLIB shallow (long-range correlated); "
              "EXP/VAR-EXP near slope -1 (Poisson-like).\n");
  return 0;
}
