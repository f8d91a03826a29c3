// Connection-level twin of the packet chunk contract (chunk.hpp): a
// ConnChunkSource pulls ConnRecords in fixed-size chunks so
// connection-log ingestion (src/ingest) streams week-scale SYN/FIN logs
// in bounded memory. The contract is identical — next() clears then
// fills, false means exhausted, records arrive in batch order, reset()
// rewinds to an identical sequence.
#pragma once

#include <cstddef>
#include <vector>

#include "src/stream/chunk.hpp"
#include "src/trace/conn_trace.hpp"
#include "src/trace/records.hpp"

namespace wan::stream {

class ConnChunkSource {
 public:
  virtual ~ConnChunkSource() = default;

  virtual const StreamInfo& info() const = 0;

  /// Chunk contract of PacketChunkSource::next, for ConnRecords.
  virtual bool next(std::vector<trace::ConnRecord>& chunk) = 0;

  /// Rewinds to the first record.
  virtual void reset() = 0;
};

/// Drains the source into an in-memory ConnTrace (the streaming → batch
/// bridge). The Section-III analyses (poisson_report, find_ftp_bursts)
/// are whole-trace algorithms, so connection analysis lands here; the
/// value of the chunk contract is that ingestion and filtering upstream
/// never hold more than a chunk.
trace::ConnTrace collect_conns(ConnChunkSource& source);

}  // namespace wan::stream
