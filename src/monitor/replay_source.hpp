// Replay source: feeds an existing capture through the daemon at a
// configurable time acceleration, pacing deliveries against a virtual
// clock.
//
// The wrapped PcapColumnSource does all the decoding and flow
// reconstruction; this layer only decides *when* each chunk is handed
// to the caller. `speed` is capture-seconds per wall-second: 1.0
// replays in real time, 60.0 replays an hour per minute, and 0 means
// as-fast-as-possible — no sleeps at all, which is the deterministic
// mode the replay tests and benches run (two speed-0 runs produce
// byte-identical report streams, because nothing downstream observes
// wall time).
//
// The virtual clock anchors at the first next(): wall_deadline(chunk) =
// anchor + (chunk_last_time - t_begin) / speed. Sleeping happens in
// short slices with a stop flag checked between them, so SIGINT
// interrupts a paced replay within ~50 ms instead of waiting out a
// long quiet stretch of the capture.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>

#include "src/ingest/sources.hpp"
#include "src/stream/columnar.hpp"

namespace wan::monitor {

class ReplaySource {
 public:
  /// Opens and prescans the capture (so info() carries the full time
  /// range up front — the replay knows its own end, unlike a tail).
  /// `stop` may be null; when set, pacing sleeps abort early once the
  /// flag goes true. Throws what PcapColumnSource's constructor and its
  /// prescan throw (strict mode: the first defect in the capture).
  ReplaySource(const std::string& path, ingest::ParseMode mode, double speed,
               ingest::FlowTableConfig flow = {},
               std::size_t chunk_size = stream::kDefaultChunkSize,
               const std::atomic<bool>* stop = nullptr);

  const stream::StreamInfo& info() const { return inner_.info(); }
  const ingest::IngestStats& stats() const { return inner_.stats(); }
  double speed() const { return speed_; }

  /// Pulls the next chunk, then blocks until the virtual clock reaches
  /// the chunk's last timestamp (speed > 0 only). Chunk contents are
  /// identical at every speed.
  bool next(stream::PacketColumns& chunk);

 private:
  ingest::PcapColumnSource inner_;
  double speed_;
  const std::atomic<bool>* stop_;
  bool anchored_ = false;
  std::chrono::steady_clock::time_point anchor_;
};

}  // namespace wan::monitor
