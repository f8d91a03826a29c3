// Shard-by-flow-hash parallelism for the streaming pipeline.
//
// A trace is partitioned by connection: every packet of a connection
// lands in the shard selected by a fixed mix of its conn id, so
// per-connection computations (the bulk-outlier detector, flow state)
// stay shard-local while per-bin computations (count accumulation) are
// exact integer adds that merge across shards bit-for-bit. The shard
// assignment is a pure function of the record and the shard count —
// never of the thread count, queue sizing, or scheduling — which is the
// first half of the determinism story. The second half is that merged
// accumulator state is reduced in fixed shard order (0 <- 1 <- 2 ...),
// so a sharded run at ANY thread count emits the same bytes as the
// serial path.
//
// ShardRouter moves the chunks: one pump (the calling thread) drains
// the upstream source, splits each chunk into per-shard sub-chunks with
// the selection/gather kernels, and pushes them onto one bounded queue
// per shard; per-shard consumers run on the src/par pool and drain
// their queue in order. The queues bound memory (backpressure: the pump
// blocks while a queue is full, so the generator runs ahead by at most
// queue_chunks chunks per shard) and serialize each shard's sub-chunks
// in upstream order. At par::thread_count() == 1 the router runs the
// identical partition inline, invoking consumers synchronously in shard
// order — no queues, no threads, same per-shard chunk sequences.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>

#include "src/stream/chunk.hpp"
#include "src/stream/columnar.hpp"
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

/// Shard of a host pair, unordered, so both directions — and every
/// connection of one host pair, e.g. an FTP session's control and data
/// connections — land together. Sharded flow reconstruction
/// (src/ingest/shard_ingest.hpp) routes raw packets by it.
inline std::size_t shard_of_hosts(std::uint32_t a, std::uint32_t b,
                                  std::size_t n_shards) noexcept {
  const std::uint32_t lo = a < b ? a : b;
  const std::uint32_t hi = a < b ? b : a;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(lo) << 32) | static_cast<std::uint64_t>(hi);
  return static_cast<std::size_t>(shard_mix(key) %
                                  static_cast<std::uint64_t>(n_shards));
}

/// Splits `in` into per-shard sub-chunks appended-nowhere: out[s] is
/// cleared and receives in's rows with shard_of(conn_id) == s, in row
/// order. out.size() must equal n_shards.
void partition_packets(const PacketColumns& in, std::size_t n_shards,
                       std::vector<PacketColumns>& out);

/// Bounded MPSC chunk queue: push blocks while full (backpressure on
/// the producer), pop blocks while empty and returns false once the
/// queue is closed and drained.
template <class Chunk>
class BoundedChunkQueue {
 public:
  explicit BoundedChunkQueue(std::size_t capacity)
      : capacity_(capacity ? capacity : 1) {}

  void push(Chunk&& c) {
    std::unique_lock lock(mu_);
    not_full_.wait(lock, [&] { return q_.size() < capacity_ || closed_; });
    if (closed_) return;  // consumer gave up; drop to unblock the producer
    q_.push_back(std::move(c));
    lock.unlock();
    not_empty_.notify_one();
  }

  bool pop(Chunk& out) {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return !q_.empty() || closed_; });
    if (q_.empty()) return false;
    out = std::move(q_.front());
    q_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// After close: push drops, pop drains the backlog then returns false.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<Chunk> q_;
  std::size_t capacity_;
  bool closed_ = false;
};

/// Routing configuration. queue_chunks bounds the per-shard queue, so
/// routed memory is at most n_shards * queue_chunks * chunk bytes ahead
/// of the consumers.
struct ShardRouterOptions {
  std::size_t n_shards = 1;
  std::size_t queue_chunks = 4;
};

/// Splits a column source into per-shard sub-streams. consume(s, chunk)
/// receives shard s's sub-chunks in upstream order; calls for one shard
/// never overlap (they run on one consumer), different shards run
/// concurrently when par::thread_count() > 1. The per-shard sub-chunk
/// sequences are identical at every thread count.
class ShardRouter {
 public:
  /// Throws std::invalid_argument unless 1 <= n_shards <= kMaxShards.
  explicit ShardRouter(ShardRouterOptions options);

  std::size_t n_shards() const { return options_.n_shards; }

  /// Drains `source` once (no reset), routing rows by shard_of(conn_id).
  void route(PacketColumnSource& source,
             const std::function<void(std::size_t, const PacketColumns&)>&
                 consume);

  static constexpr std::size_t kMaxShards = 1024;

 private:
  ShardRouterOptions options_;
};

/// Sharded twin of analyze_columns: partitions the stream across
/// n_shards, runs the filter stack's chunk kernels (filter_rows,
/// drop_outlier_rows) per shard — with options.remove_outliers, the
/// two-pass bulk-outlier scan per shard too, since outlier decisions
/// are per-connection and a connection is shard-local — accumulates
/// bin counts, merges shard state in shard order, and finishes in the
/// serial CountTail. The result is byte-identical to
/// analyze_columns(source, options) at every (shard count, thread
/// count): bin-count merge is exact, and everything downstream of the
/// merged counts is the serial code.
///
/// With remove_outliers the source is drained twice (reset() between
/// passes), exactly like ColumnBulkOutlierSource.
PipelineResult analyze_sharded(PacketColumnSource& source,
                               const PipelineOptions& options,
                               ShardRouterOptions shard_options);

/// Per-shard-source form: shard s pulls from its own source instead of
/// routing one shared stream through queues — the shape per-shard
/// synthesis wants, where each shard regenerates exactly its own
/// connections. make_shard(s) must return a source whose records are
/// exactly the serial stream's records with shard_of(conn_id, n_shards)
/// == s (per connection, in time order), and whose info matches the
/// serial source's — which StreamingPacketSynthesizer's SynthShard
/// guarantees. make_shard may be called concurrently from pool
/// threads. Shards run concurrently via par::parallel_for (each
/// doing its own outlier two-pass locally — outlier decisions are
/// per-connection, hence shard-local); merged output is byte-identical
/// to the serial analysis, same argument as analyze_sharded.
PipelineResult analyze_sharded_sources(
    const std::function<std::unique_ptr<PacketChunkSource>(std::size_t)>&
        make_shard,
    std::size_t n_shards, const PipelineOptions& options);

}  // namespace wan::stream
