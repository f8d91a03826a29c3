// Per-protocol engine multiplexer: one stream::WindowedAnalyzer per
// tracked protocol plus an aggregate over everything, all sharing one
// slide geometry and one stream origin (t_begin).
//
// Each push partitions the chunk's event times by protocol in one
// serial pass (the aggregate reads the chunk's times as they are, a
// protocol engine only its protocol's bucket) and advances every engine
// to the same capture time — including the engines whose protocol saw
// no traffic, whose bins would otherwise stall and hold their reports
// back. The advance completes only bins that end strictly before the
// newest event's bin, so it can never close a bin early: the report
// sequence each engine emits is bit-identical to running
// analyze_windowed offline over the same capture with that engine's
// protocol filter (the fan-out parity tests pin this, engine by engine
// and field by field).
//
// The engines share one stats::WhittleRefitter. One slide geometry means
// one Welch segment length, hence one periodogram grid,
// fft::fourier_frequencies(segment_bins), so one set of density tables
// serves every engine and every sweep level. The constructor sets up
// the refitter's lattice (no density work) and hands each engine a
// shared pointer to it; the engines' fits then build each table row
// once, the first time any of them reads it. Per engine instead, every
// row an engine reads would be built once per engine.
//
// Engines update in parallel on the src/par pool — they share no
// mutable state they can observe (each engine's sink appends to its
// own pending queue, and a table row WhittleRefitter::fit builds is
// built once under its own once-flag and has the same bits whichever
// engine builds it), and every engine reads a time span filled before
// the parallel region, so the result is independent of scheduling.
// Reports drain in rounds — because all engines advance through the
// same boundaries they emit in lockstep, and a round is one report per
// engine in fixed engine order — which makes the drained sequence
// deterministic.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/stream/columnar.hpp"
#include "src/stream/window_analyzer.hpp"
#include "src/trace/protocol.hpp"

namespace wan::monitor {

/// One drained report: which engine produced it, and the report itself.
struct MuxReport {
  std::size_t engine = 0;
  stream::WindowReport report;
};

class EngineMux {
 public:
  /// Engine 0 is the aggregate ("ALL"); engines 1..n follow `protocols`
  /// in the given order. `options` supplies the shared geometry; its
  /// own protocol filter must be unset (the mux partitions by protocol
  /// itself) — throws std::invalid_argument otherwise, and
  /// when the segment length gives the Whittle fit fewer than 8
  /// periodogram ordinates. Sets up the shared Whittle refitter, whose
  /// table rows the engines' fits build on first read.
  EngineMux(const stream::WindowedOptions& options,
            const std::vector<trace::Protocol>& protocols, double t_begin);

  /// Feeds one chunk (nondecreasing times) through every engine.
  void push(const stream::PacketColumns& chunk);

  /// Completes bins through t_end on every engine — the final flush.
  void finish(double t_end);

  /// Moves every complete round of pending reports into `out`
  /// (appending; round-major, engine-minor). Complete rounds only, so
  /// interleaving stays deterministic mid-stream; finish() makes all
  /// rounds complete.
  void take_reports(std::vector<MuxReport>& out);

  std::size_t engines() const { return engines_.size(); }
  const std::string& engine_name(std::size_t i) const {
    return engines_[i].name;
  }
  /// Events routed to engine i so far (post-partition).
  std::uint64_t engine_events(std::size_t i) const {
    return engines_[i].events;
  }
  std::uint64_t reports_emitted() const { return reports_emitted_; }
  /// End time of the newest drained round's window, NaN before any.
  double last_report_t1() const { return last_t1_; }

 private:
  struct Engine {
    std::string name;
    bool all = false;  ///< aggregate: takes every event
    std::size_t bucket = 0;  ///< protocol engine: its index in buckets_
    std::deque<stream::WindowReport> pending;
    std::unique_ptr<stream::WindowedAnalyzer> analyzer;
    std::uint64_t events = 0;
  };

  static constexpr std::uint8_t kUntracked = 0xFF;

  stream::WindowedOptions options_;
  double t_begin_ = 0.0;
  std::vector<Engine> engines_;
  /// Index in buckets_ of each protocol byte's bucket, kUntracked for a
  /// protocol no engine follows. Engines of one protocol share a bucket.
  std::array<std::uint8_t, 256> bucket_of_;
  std::vector<std::vector<double>> buckets_;  ///< partition scratch
  std::uint64_t reports_emitted_ = 0;
  double last_t1_;
};

}  // namespace wan::monitor
