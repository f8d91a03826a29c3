#include "src/core/poisson_report.hpp"

#include "src/plot/ascii_plot.hpp"
#include "src/trace/conn_groups.hpp"

namespace wan::core {

std::vector<ProtocolVerdict> poisson_report(
    const trace::ConnTrace& tr, const PoissonReportConfig& config) {
  return poisson_report(
      tr, config,
      config.include_ftp_bursts ? trace::find_ftp_bursts(tr, config.burst_gap)
                                : std::vector<trace::FtpBurst>{});
}

std::vector<ProtocolVerdict> poisson_report(
    const trace::ConnTrace& tr, const PoissonReportConfig& config,
    const std::vector<trace::FtpBurst>& bursts) {
  stats::PoissonTestConfig test = config.test;
  test.interval_length = config.interval_length;

  // Every protocol's sorted arrivals from one grouping pass.
  const trace::ConnGroups by_protocol(tr, [](const trace::ConnRecord& r) {
    return trace::GroupKey{static_cast<std::uint64_t>(r.protocol), 0};
  });
  std::vector<ProtocolVerdict> rows;
  for (trace::Protocol p : config.protocols) {
    const auto g = by_protocol.find({static_cast<std::uint64_t>(p), 0});
    if (!g) continue;
    const std::span<const double> times = by_protocol.starts(*g);
    if (times.size() < 2 * test.min_interarrivals) continue;
    ProtocolVerdict v;
    v.trace_name = tr.name();
    v.label = std::string(trace::to_string(p));
    v.result = stats::test_poisson_arrivals(times, test, tr.t_begin(),
                                            tr.t_end());
    if (v.result.n_intervals > 0) rows.push_back(std::move(v));
  }

  if (config.include_ftp_bursts) {
    const auto times = trace::burst_start_times(bursts);
    if (times.size() >= 2 * test.min_interarrivals) {
      ProtocolVerdict v;
      v.trace_name = tr.name();
      v.label = "FTPDATA-burst";
      v.result = stats::test_poisson_arrivals(times, test, tr.t_begin(),
                                              tr.t_end());
      if (v.result.n_intervals > 0) rows.push_back(std::move(v));
    }
  }
  return rows;
}

std::string render_poisson_report(const std::vector<ProtocolVerdict>& rows) {
  std::vector<std::vector<std::string>> cells;
  for (const ProtocolVerdict& v : rows) {
    const auto& r = v.result;
    cells.push_back({
        v.trace_name,
        v.label,
        plot::fmt(100.0 * r.frac_pass_exponential, 3) + "%",
        plot::fmt(100.0 * r.frac_pass_independence, 3) + "%",
        std::to_string(r.n_intervals),
        r.poisson ? "POISSON" : "not-Poisson",
        r.lag1_sign_bias > 0 ? "+" : (r.lag1_sign_bias < 0 ? "-" : ""),
    });
  }
  return plot::render_table(
      {"trace", "protocol", "exp-pass", "indep-pass", "intervals", "verdict",
       "corr"},
      cells);
}

}  // namespace wan::core
