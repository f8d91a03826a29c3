#include "src/trace/periodic.hpp"

#include <span>
#include <utility>

#include "src/stats/descriptive.hpp"
#include "src/trace/conn_groups.hpp"

namespace wan::trace {

namespace {

GroupKey stream_key(const ConnRecord& r) {
  return {(std::uint64_t{r.src_host} << 32) | r.dst_host,
          static_cast<std::uint64_t>(r.protocol)};
}

// The periodic streams among `streams`, in key order; appends each
// one's group index to `groups` when it is given.
std::vector<PeriodicStream> detect(const ConnGroups& streams,
                                   const PeriodicDetectionConfig& config,
                                   std::vector<std::size_t>* groups) {
  std::vector<PeriodicStream> found;
  for (std::size_t g = 0; g < streams.size(); ++g) {
    const std::span<const double> times = streams.starts(g);
    if (times.size() < config.min_count) continue;
    const auto gaps = stats::interarrivals(times);
    const double m = stats::mean(gaps);
    if (!(m > 0.0)) continue;
    const double cv = stats::stddev(gaps) / m;
    if (cv <= config.max_cv) {
      const GroupKey& key = streams.key(g);
      PeriodicStream s;
      s.src_host = static_cast<std::uint32_t>(key.hi >> 32);
      s.dst_host = static_cast<std::uint32_t>(key.hi);
      s.protocol = static_cast<Protocol>(key.lo);
      s.connections = times.size();
      s.mean_period = m;
      s.cv = cv;
      found.push_back(s);
      if (groups) groups->push_back(g);
    }
  }
  return found;
}

}  // namespace

std::vector<PeriodicStream> detect_periodic_streams(
    const ConnTrace& trace, const PeriodicDetectionConfig& config) {
  return detect(ConnGroups(trace, stream_key), config, nullptr);
}

ConnTrace remove_periodic_streams(ConnTrace trace,
                                  const PeriodicDetectionConfig& config) {
  std::vector<char> doomed(trace.size(), 0);
  {
    const ConnGroups streams(trace, stream_key);
    std::vector<std::size_t> groups;
    detect(streams, config, &groups);
    for (const std::size_t g : groups) {
      for (const std::uint32_t i : streams.members(g)) doomed[i] = 1;
    }
  }
  std::vector<ConnRecord> records = std::move(trace).take_records();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!doomed[i]) records[kept++] = records[i];
  }
  records.resize(kept);
  return ConnTrace(trace.name() + "/deperiodic", trace.t_begin(),
                   trace.t_end(), std::move(records));
}

}  // namespace wan::trace
