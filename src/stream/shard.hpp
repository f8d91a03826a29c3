// Shard-by-flow-hash parallelism: the shard keys, and the analysis of
// per-shard synthesized traces.
//
// A trace is partitioned by connection: every packet of a connection
// lands in the shard selected by a fixed mix of its conn id, so
// per-connection computations (the bulk-outlier detector) stay
// shard-local while per-bin computations (count accumulation) are
// exact integer adds that merge across shards bit-for-bit. The shard
// assignment is a pure function of the record and the shard count —
// never of the thread count or scheduling — which is the first half of
// the determinism story. The second half is that merged accumulator
// state is reduced in fixed shard order (0 <- 1 <- 2 ...), so a sharded
// run at ANY thread count emits the same bytes as the serial path.
//
// Each analysis shard pulls from its own source: the streaming
// synthesizer generates exactly one shard's connections
// (synth::SynthShard), so generation itself divides across the src/par
// pool. A recorded trace or a capture has one decode, which no
// partition of the analysis divides; those take the serial
// analyze_columns (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/stream/chunk.hpp"
#include "src/stream/pipeline.hpp"

namespace wan::stream {

/// splitmix64 finalizer: the bit mix shard assignment runs on keys.
/// Decorrelates shard choice from conn-id assignment order, so dense
/// sequential ids spread evenly at any shard count.
inline std::uint64_t shard_mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Shard of a packet: a pure function of (conn_id, n_shards).
inline std::size_t shard_of(std::uint32_t conn_id,
                            std::size_t n_shards) noexcept {
  return static_cast<std::size_t>(shard_mix(conn_id) %
                                  static_cast<std::uint64_t>(n_shards));
}

/// The largest shard count analyze_sharded_sources accepts.
inline constexpr std::size_t kMaxShards = 1024;

/// Sharded twin of analyze_columns over per-shard sources: shard s
/// pulls from its own source. make_shard(s) must return a source whose
/// records are exactly the serial stream's records with
/// shard_of(conn_id, n_shards) == s (per connection, in time order),
/// and whose info matches the serial source's — which
/// StreamingPacketSynthesizer's SynthShard guarantees. make_shard may
/// be called concurrently from pool threads. Shards run concurrently
/// via par::parallel_for, each through its own ColumnFilterStack (its
/// outlier stage holds only that shard's rows: outlier decisions are
/// per-connection, hence shard-local); per-shard bin grids merge in
/// shard order and finish in the serial CountTail, so the result is
/// byte-identical to analyze_columns over the serial source at every
/// (shard count, thread count). Throws std::invalid_argument unless
/// 1 <= n_shards <= kMaxShards.
PipelineResult analyze_sharded_sources(
    const std::function<std::unique_ptr<PacketChunkSource>(std::size_t)>&
        make_shard,
    std::size_t n_shards, const PipelineOptions& options);

}  // namespace wan::stream
