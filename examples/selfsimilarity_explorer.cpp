// Example: generating and detecting self-similar traffic — the Section
// VII toolkit as an application. Generates processes from each of the
// paper's three constructions (ON/OFF with heavy tails, M/G/inf with
// Pareto lifetimes, i.i.d.-Pareto pseudo-self-similar renewal), plus
// exact fGn, and pushes each through the full estimator battery.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/dist/exponential.hpp"
#include "src/dist/pareto.hpp"
#include "src/plot/ascii_plot.hpp"
#include "src/rng/rng.hpp"
#include "src/selfsim/fgn.hpp"
#include "src/selfsim/mginf.hpp"
#include "src/selfsim/onoff.hpp"
#include "src/selfsim/pareto_renewal.hpp"
#include "src/stats/beran.hpp"
#include "src/stats/counting.hpp"
#include "src/stats/rs_analysis.hpp"
#include "src/stats/variance_time.hpp"

using namespace wan;

namespace {

void battery(const char* name, const std::vector<double>& counts,
             std::vector<std::vector<std::string>>* rows) {
  const auto vt = stats::variance_time_plot(counts);
  const std::vector<double> series = stats::aggregate_halvings(counts, 8192);
  const auto rs = stats::rs_analysis(series);
  const auto beran = stats::beran_fgn_test(series);
  rows->push_back({name, plot::fmt(vt.hurst(4, 2000), 3),
                   plot::fmt(rs.hurst(), 3),
                   plot::fmt(beran.whittle.hurst, 3),
                   beran.consistent ? "yes" : "no"});
}

}  // namespace

int main(int argc, char** argv) {
  rng::Rng rng(argc > 1 ? static_cast<std::uint64_t>(std::atoll(argv[1]))
                        : 2718);
  const std::size_t n = 1 << 15;
  std::vector<std::vector<std::string>> rows;

  {  // Exact fGn: the reference self-similar process.
    rng::Rng r = rng.child("fgn");
    battery("fGn H=0.8 (exact)", selfsim::generate_fgn(r, n, 0.8), &rows);
  }
  {  // ON/OFF with Pareto periods, the [28] construction.
    rng::Rng r = rng.child("onoff");
    const dist::Pareto on(1.0, 1.4), off(1.0, 1.4);
    selfsim::OnOffConfig cfg;
    cfg.n_sources = 40;
    battery("ON/OFF Pareto(1.4)",
            selfsim::onoff_aggregate_counts(r, on, off, n, cfg), &rows);
  }
  {  // M/G/inf with Pareto lifetimes (Appendix D).
    rng::Rng r = rng.child("mginf");
    const dist::Pareto life(1.0, 1.4);
    selfsim::MgInfConfig cfg;
    cfg.arrival_rate = 4.0;
    cfg.warmup = 40000.0;
    battery("M/G/inf Pareto(1.4)",
            selfsim::mginf_count_process(r, life, n, cfg), &rows);
  }
  {  // Pseudo-self-similar renewal counts (Appendix C).
    rng::Rng r = rng.child("renewal");
    selfsim::ParetoRenewalConfig cfg;
    cfg.shape = 1.0;
    cfg.bin_width = 1e3;
    battery("iid Pareto(1.0) renewal",
            selfsim::pareto_renewal_counts(r, n, cfg), &rows);
  }
  {  // Poisson control.
    rng::Rng r = rng.child("poisson");
    const dist::Exponential life(2.0);
    selfsim::MgInfConfig cfg;
    cfg.arrival_rate = 4.0;
    cfg.warmup = 100.0;
    battery("M/G/inf exponential (control)",
            selfsim::mginf_count_process(r, life, n, cfg), &rows);
  }

  std::printf("=== self-similarity estimator battery (n = %zu) ===\n\n", n);
  std::printf("%s\n",
              plot::render_table({"process", "VT H", "R/S H", "Whittle H",
                                  "fGn-consistent?"},
                                 rows)
                  .c_str());
  std::printf(
      "expected: fGn detected at H~0.8 and consistent; ON/OFF and M/G/inf "
      "heavy-tailed\nconstructions show H well above 1/2; the pseudo-self-"
      "similar renewal process shows\nelevated H over finite scales even "
      "though it is NOT truly LRD (Appendix C);\nthe exponential control "
      "sits at H ~ 1/2.\n");
  return 0;
}
