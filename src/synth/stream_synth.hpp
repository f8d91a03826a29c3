// StreamingPacketSynthesizer: synthesize_packet_trace as a pull source.
//
// The batch synthesizer materializes every packet, clips, and sorts —
// peak memory proportional to the trace length. This source emits the
// *identical* record sequence in time order, chunk by chunk, holding
// only cheap per-connection skeletons (arrival times, RNG checkpoints)
// plus the packets of currently active connections:
//
//  * a cheap eager phase derives the same per-source child RNG streams
//    as the batch path and generates connection skeletons — arrival
//    times, bulk connection records, per-connection RNG state — all
//    O(#connections), not O(#packets);
//  * each source then lazily "activates" connections as the merge
//    frontier reaches their start time, regenerating their packets into
//    a per-source ordered buffer (a min-heap keyed by (time, sequence));
//  * a record is emitted only once every source's frontier has passed
//    it, and ties are broken by source rank then sequence — the same
//    order the batch path's stable sort of the concatenated sources
//    produces.
//
// Determinism contract: collect(StreamingPacketSynthesizer(cfg)) equals
// synthesize_packet_trace(cfg) record for record (pinned by the
// `stream`-labeled tests). This holds because every source's randomness
// is position-independent — telnet connections replay from saved RNG
// checkpoints, bulk connections draw from bulk_conn_rng(stream_key,
// conn_id), DNS/MBone walk their own child streams in arrival order.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "src/stream/chunk.hpp"
#include "src/synth/synthesizer.hpp"

namespace wan::synth {

/// One shard of a sharded synthesis: emit only the records whose conn
/// id lands in shard `index` of `count` under stream::shard_of, the
/// assignment stream::analyze_sharded_sources relies on. The default
/// (count 1) is the whole trace.
struct SynthShard {
  std::size_t index = 0;
  std::size_t count = 1;
};

class StreamingPacketSynthesizer final : public stream::PacketChunkSource {
 public:
  /// One traffic source as a lazily-activated, time-ordered buffer
  /// (defined in the .cpp; public so source implementations can subclass).
  class Generator;

  /// Sharding determinism: every shard re-derives the identical child
  /// RNG streams and connection skeletons (arrival times, conn-id
  /// numbering — all O(#connections) eager work is replicated), then
  /// activates only its own connections. Bulk connections — the volume
  /// driver — re-seed per-connection RNG, so non-owned ones are skipped
  /// outright; telnet/DNS/MBone walk shared sequential streams, so
  /// non-owned units are generated and discarded to keep the stream
  /// position exact. Shard membership is a pure function of (conn id,
  /// count): shard 3 of 8 emits the same records at any thread count,
  /// and the shards' union is the serial record set exactly.
  explicit StreamingPacketSynthesizer(
      PacketDatasetConfig config,
      std::size_t chunk_size = stream::kDefaultChunkSize,
      SynthShard shard = {});
  ~StreamingPacketSynthesizer() override;

  const stream::StreamInfo& info() const override { return info_; }
  bool next(std::vector<trace::PacketRecord>& chunk) override;
  /// Re-derives every per-source stream from the config; the replay is
  /// identical to the first pass.
  void reset() override;

 private:
  void build();

  PacketDatasetConfig config_;
  stream::StreamInfo info_;
  std::size_t chunk_size_;
  SynthShard shard_;
  /// In merge-rank order: telnet, bulk, dns, mbone (the batch
  /// concatenation order, which fixes tie-breaking).
  std::vector<std::unique_ptr<Generator>> gens_;
};

}  // namespace wan::synth
