// Detection and removal of timer-driven periodic traffic — the paper's
// preprocessing step ("Prior to our analysis we removed the periodic
// 'weather-map' FTP traffic ... to avoid skewing our results",
// Section III).
//
// Detection: for each (src, dst, protocol) stream with at least
// `min_count` connections, compute the interarrival coefficient of
// variation. Human- or queue-driven streams have CV near or above 1;
// timer-driven jobs have CV far below 1 (tight jitter around a fixed
// period).
#pragma once

#include <cstdint>
#include <vector>

#include "src/trace/conn_trace.hpp"

namespace wan::trace {

/// A detected periodic stream.
struct PeriodicStream {
  std::uint32_t src_host = 0;
  std::uint32_t dst_host = 0;
  Protocol protocol = Protocol::kOther;
  std::size_t connections = 0;
  double mean_period = 0.0;
  double cv = 0.0;  ///< stddev(gaps)/mean(gaps)
};

struct PeriodicDetectionConfig {
  std::size_t min_count = 8;  ///< streams shorter than this are ignored
  double max_cv = 0.25;       ///< CV threshold declaring "timer-driven"
};

/// Finds periodic (src, dst, protocol) streams in the trace.
std::vector<PeriodicStream> detect_periodic_streams(
    const ConnTrace& trace, const PeriodicDetectionConfig& config = {});

/// Returns the trace with every connection belonging to a detected
/// periodic stream removed (both the FTPDATA and control legs of a
/// weather-map-style job disappear because both streams are periodic),
/// named "<name>/deperiodic". The trace is compacted in place, so a
/// caller done with its input moves it in and pays no copy; an lvalue
/// argument is copied.
ConnTrace remove_periodic_streams(ConnTrace trace,
                                  const PeriodicDetectionConfig& config = {});

}  // namespace wan::trace
