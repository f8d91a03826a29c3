#include "src/trace/burst.hpp"

#include <algorithm>
#include <tuple>

#include "src/trace/conn_groups.hpp"

namespace wan::trace {

namespace {

GroupKey session_key(const ConnRecord& r) { return {r.session_id, 0}; }

GroupKey host_pair_key(const ConnRecord& r) {
  return {(std::uint64_t{r.src_host} << 32) | r.dst_host, 0};
}

// FTPDATA connections of each session, in key order, by start.
ConnGroups sessions_of(const ConnTrace& trace, SessionGrouping grouping) {
  return ConnGroups(trace,
                    grouping == SessionGrouping::kSessionId ? session_key
                                                            : host_pair_key,
                    Protocol::kFtpData);
}

}  // namespace

std::vector<FtpBurst> find_ftp_bursts(const ConnTrace& trace, double gap,
                                      SessionGrouping grouping) {
  const ConnGroups sessions = sessions_of(trace, grouping);
  std::vector<FtpBurst> bursts;
  for (std::size_t g = 0; g < sessions.size(); ++g) {
    const std::uint64_t key = sessions.key(g).hi;
    FtpBurst current;
    bool open = false;
    for (const std::uint32_t i : sessions.members(g)) {
      const ConnRecord& c = trace.records()[i];
      if (open && c.start - current.end <= gap) {
        current.end = std::max(current.end, c.end());
        current.bytes += c.total_bytes();
        current.n_connections += 1;
      } else {
        if (open) bursts.push_back(current);
        current = FtpBurst{c.start, c.end(), c.total_bytes(), 1, key};
        open = true;
      }
    }
    if (open) bursts.push_back(current);
  }
  const auto rest = [](const FtpBurst& b) {
    return std::tie(b.end, b.bytes, b.n_connections, b.session_id);
  };
  std::sort(bursts.begin(), bursts.end(),
            [&](const FtpBurst& a, const FtpBurst& b) {
              if (a.start < b.start) return true;
              if (b.start < a.start) return false;
              return rest(a) < rest(b);
            });
  return bursts;
}

std::vector<double> intra_session_spacings(const ConnTrace& trace,
                                           SessionGrouping grouping,
                                           double min_spacing) {
  const ConnGroups sessions = sessions_of(trace, grouping);
  std::vector<double> spacings;
  for (std::size_t g = 0; g < sessions.size(); ++g) {
    const std::span<const std::uint32_t> conns = sessions.members(g);
    for (std::size_t i = 1; i < conns.size(); ++i) {
      const double s = trace.records()[conns[i]].start -
                       trace.records()[conns[i - 1]].end();
      spacings.push_back(std::max(s, min_spacing));
    }
  }
  return spacings;
}

std::vector<double> burst_bytes(const std::vector<FtpBurst>& bursts) {
  std::vector<double> out;
  out.reserve(bursts.size());
  for (const FtpBurst& b : bursts)
    out.push_back(static_cast<double>(b.bytes));
  return out;
}

std::vector<double> burst_start_times(const std::vector<FtpBurst>& bursts) {
  std::vector<double> out;
  out.reserve(bursts.size());
  for (const FtpBurst& b : bursts) out.push_back(b.start);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace wan::trace
