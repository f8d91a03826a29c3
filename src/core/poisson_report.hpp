// The Fig. 2 driver: run the Appendix-A Poisson tests on every protocol
// of a connection trace (including FTPDATA bursts), at both interval
// lengths, and render the verdict table.
#pragma once

#include <string>
#include <vector>

#include "src/stats/poisson_test.hpp"
#include "src/trace/burst.hpp"
#include "src/trace/conn_trace.hpp"

namespace wan::core {

/// One letter of Fig. 2: a (trace, protocol) pair's verdict.
struct ProtocolVerdict {
  std::string trace_name;
  std::string label;  ///< protocol or "FTPDATA-burst"
  stats::PoissonTestResult result;
};

struct PoissonReportConfig {
  double interval_length = 3600.0;
  double burst_gap = 4.0;  ///< Section VI's burst-joining threshold
  std::vector<trace::Protocol> protocols = {
      trace::Protocol::kTelnet, trace::Protocol::kFtpCtrl,
      trace::Protocol::kFtpData, trace::Protocol::kSmtp,
      trace::Protocol::kNntp,   trace::Protocol::kWww,
      trace::Protocol::kRlogin, trace::Protocol::kX11,
  };
  bool include_ftp_bursts = true;
  stats::PoissonTestConfig test;  ///< interval_length overridden
};

/// Runs the tests over one trace.
std::vector<ProtocolVerdict> poisson_report(const trace::ConnTrace& tr,
                                            const PoissonReportConfig& config);

/// Same, with `bursts` the find_ftp_bursts(tr, config.burst_gap) the
/// caller already holds, so the trace is not burst a second time.
/// Unread when !config.include_ftp_bursts.
std::vector<ProtocolVerdict> poisson_report(
    const trace::ConnTrace& tr, const PoissonReportConfig& config,
    const std::vector<trace::FtpBurst>& bursts);

/// Renders verdicts as a Fig. 2-style table (pass rates, consistency,
/// sign annotations).
std::string render_poisson_report(const std::vector<ProtocolVerdict>& rows);

}  // namespace wan::core
