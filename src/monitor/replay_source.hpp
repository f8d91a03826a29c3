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
// The replay counts capture time from its origin(), which depends on
// the parse mode:
//   * strict: the first decoded packet. A time that goes backwards
//     throws in strict mode, so the first packet is the earliest, and
//     the capture is decoded once, with no prescan and no rewind: a
//     pipe or FIFO replays like a file, and a defect surfaces from
//     next() when the pass reaches it.
//   * lenient: info().t_begin, the minimum of a prescan the constructor
//     runs. A lenient capture's first packet need not be its earliest,
//     and analyze_windowed anchors at the minimum.
//
// The virtual clock anchors at the first chunk: wall_deadline(chunk) =
// anchor + (chunk_last_time - origin) / speed. Sleeping happens in
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
  /// Opens the capture; a lenient replay also prescans it. `stop` may
  /// be null; when set, pacing sleeps abort early once the flag goes
  /// true. Throws what PcapColumnSource's constructor throws, and in
  /// lenient mode what its prescan throws.
  ReplaySource(const std::string& path, ingest::ParseMode mode, double speed,
               ingest::FlowTableConfig flow = {},
               std::size_t chunk_size = stream::kDefaultChunkSize,
               const std::atomic<bool>* stop = nullptr);

  /// The capture's time range, by PcapColumnSource::info()'s rule: free
  /// in lenient mode and once next() has returned false; a strict
  /// replay asked before its first next() prescans, and one asked in
  /// the middle of its pass throws std::logic_error.
  const stream::StreamInfo& info() const { return inner_.info(); }
  const ingest::IngestStats& stats() const { return inner_.stats(); }
  double speed() const { return speed_; }

  /// The capture time the replay counts from (see the file comment);
  /// set by the first chunk next() returns.
  double origin() const { return origin_; }

  /// Pulls the next chunk, then blocks until the virtual clock reaches
  /// the chunk's last timestamp (speed > 0 only). Chunk contents are
  /// identical at every speed. Strict mode throws ingest::IngestError
  /// at the capture's first defect.
  bool next(stream::PacketColumns& chunk);

 private:
  ingest::PcapColumnSource inner_;
  bool strict_;
  double speed_;
  const std::atomic<bool>* stop_;
  bool anchored_ = false;
  double origin_ = 0.0;
  std::chrono::steady_clock::time_point anchor_;
};

}  // namespace wan::monitor
