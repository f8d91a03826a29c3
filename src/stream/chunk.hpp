// The streaming layer's core contract: a PacketChunkSource is a pull
// source of packet records delivered in fixed-size chunks, so a whole
// synthesis → filter → analysis pipeline runs in memory bounded by the
// chunk size (plus per-stage state), never by the trace length.
//
// Contract for next():
//   * the chunk is cleared, then filled with up to the source's chunk
//     size records;
//   * returns true iff it produced at least one record; false means the
//     source is exhausted (and the chunk is empty);
//   * records arrive in the same order a batch construction of the
//     trace would hold them, which is what lets streaming consumers
//     reproduce batch results exactly.
// reset() rewinds to the beginning; a second pass yields the identical
// record sequence (sources that re-derive RNG state guarantee this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/packet_trace.hpp"
#include "src/trace/records.hpp"

namespace wan::stream {

/// Default records per chunk (64Ki records == 1.5 MiB of PacketRecord).
inline constexpr std::size_t kDefaultChunkSize = std::size_t{1} << 16;

/// Trace-level metadata a source knows before any records flow — the
/// same fields PacketTrace carries besides the records themselves.
struct StreamInfo {
  std::string name;
  double t_begin = 0.0;
  double t_end = 0.0;
};

class PacketChunkSource {
 public:
  virtual ~PacketChunkSource() = default;

  virtual const StreamInfo& info() const = 0;

  /// See the file comment for the chunk contract.
  virtual bool next(std::vector<trace::PacketRecord>& chunk) = 0;

  /// Rewinds to the first record.
  virtual void reset() = 0;
};

/// Adapts an in-memory PacketTrace to the chunk contract (the batch →
/// streaming bridge; also how tests drive filters with known input).
class TraceChunkSource final : public PacketChunkSource {
 public:
  explicit TraceChunkSource(const trace::PacketTrace& trace,
                            std::size_t chunk_size = kDefaultChunkSize)
      : trace_(&trace),
        info_{trace.name(), trace.t_begin(), trace.t_end()},
        chunk_size_(chunk_size) {}

  const StreamInfo& info() const override { return info_; }
  bool next(std::vector<trace::PacketRecord>& chunk) override;
  void reset() override { pos_ = 0; }

 private:
  const trace::PacketTrace* trace_;
  StreamInfo info_;
  std::size_t pos_ = 0;
  std::size_t chunk_size_;
};

/// Drains the source into an in-memory trace (the streaming → batch
/// bridge; parity tests compare this against batch construction).
trace::PacketTrace collect(PacketChunkSource& source);

/// Drains the source into a chunked writer (ChunkedBinaryWriter or
/// ChunkedCsvWriter), one chunk per write, then closes it; returns the
/// record count.
template <typename Writer>
std::uint64_t drain_into(PacketChunkSource& source, Writer& writer) {
  std::vector<trace::PacketRecord> chunk;
  while (source.next(chunk)) writer.write(chunk);
  writer.close();
  return writer.count();
}

}  // namespace wan::stream
