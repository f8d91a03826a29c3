// FTPDATA burst identification (Section VI): data connections spawned by
// the same FTP session whose spacing (end of one to start of the next) is
// at most `gap` seconds belong to one burst. The paper uses gap = 4 s and
// notes 2 s gives virtually identical results.
#pragma once

#include <vector>

#include "src/trace/conn_trace.hpp"

namespace wan::trace {

/// One FTPDATA connection burst.
struct FtpBurst {
  double start = 0.0;
  double end = 0.0;
  std::uint64_t bytes = 0;
  std::size_t n_connections = 0;
  std::uint64_t session_id = 0;
};

/// How to group FTPDATA connections into sessions before bursting.
enum class SessionGrouping {
  kSessionId,  ///< use ConnRecord::session_id ground truth
  kHostPair,   ///< group by (src, dst) host pair, as SYN/FIN analysis must
};

/// Finds FTPDATA bursts in a connection trace, in start order. Equal
/// starts are ordered by end, bytes, n_connections and session key, so
/// the order is total.
std::vector<FtpBurst> find_ftp_bursts(
    const ConnTrace& trace, double gap = 4.0,
    SessionGrouping grouping = SessionGrouping::kSessionId);

/// The spacings between consecutive FTPDATA connections *within the same
/// session*: end of one connection to start of the next (Fig. 8's
/// distribution). Negative spacings (overlapping connections) are clamped
/// to `min_spacing`.
std::vector<double> intra_session_spacings(
    const ConnTrace& trace,
    SessionGrouping grouping = SessionGrouping::kSessionId,
    double min_spacing = 1e-3);

/// Burst byte sizes, convenient for tail analysis.
std::vector<double> burst_bytes(const std::vector<FtpBurst>& bursts);

/// Burst start times, sorted (for arrival-process tests).
std::vector<double> burst_start_times(const std::vector<FtpBurst>& bursts);

}  // namespace wan::trace
