#include "src/stream/shard.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "src/par/parallel.hpp"

namespace wan::stream {

namespace {

// Per-shard bin grids and packet counts. Bin increments are exact
// integer adds into identical grids, so the shard-ordered merge in
// finish() reproduces the serial accumulator's bits regardless of how
// rows were split; downstream of the merged counts is the serial
// CountTail. Index s is touched only by shard s.
struct ShardCounts {
  ShardCounts(const CountTail& tail, std::size_t n) : packets(n, 0) {
    bins.reserve(n);
    for (std::size_t s = 0; s < n; ++s) bins.push_back(tail.grid());
  }

  void add(std::size_t s, const PacketColumns& chunk) {
    packets[s] += chunk.size();
    bins[s].add(std::span<const double>(chunk.time));
  }

  PipelineResult finish(const CountTail& tail) {
    for (std::size_t s = 1; s < bins.size(); ++s) {
      bins[0].merge(bins[s]);
      packets[0] += packets[s];
    }
    return tail.finish(packets[0], bins[0].take());
  }

  std::vector<stats::BinCountsAccumulator> bins;
  std::vector<std::uint64_t> packets;
};

}  // namespace

PipelineResult analyze_sharded_sources(
    const std::function<std::unique_ptr<PacketChunkSource>(std::size_t)>&
        make_shard,
    std::size_t n_shards, const PipelineOptions& options) {
  if (n_shards == 0 || n_shards > kMaxShards)
    throw std::invalid_argument(
        "analyze_sharded_sources: n_shards must be in [1, " +
        std::to_string(kMaxShards) + "]");

  // Shard 0's info IS the serial info (the factory contract), so the
  // filter stack over it fixes the derived name and the grid before any
  // other shard runs. Its stack is built once: with the outlier stage,
  // info() has already read shard 0's rows into it.
  const auto first = make_shard(0);
  ColumnsFromRows first_columns(*first);
  ColumnFilterStack first_filtered(first_columns, options);
  const CountTail tail(first_filtered.info(), options.bin);
  ShardCounts counts(tail, n_shards);

  // Each shard is fully independent — its own source, its own filter
  // stack (the outlier stage holds only this shard's rows) — so a flat
  // parallel_for over shards is enough. Grain 1: shards are the unit of
  // work.
  const auto drain = [&](std::size_t s, PacketColumnSource& filtered) {
    PacketColumns chunk;
    while (filtered.next(chunk)) counts.add(s, chunk);
  };
  par::parallel_for(0, n_shards, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t s = b; s < e; ++s) {
      if (s == 0) {
        drain(0, first_filtered);
        continue;
      }
      const auto source = make_shard(s);
      ColumnsFromRows columns(*source);
      ColumnFilterStack filtered(columns, options);
      drain(s, filtered);
    }
  });
  return counts.finish(tail);
}

}  // namespace wan::stream
