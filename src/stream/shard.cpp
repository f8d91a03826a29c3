#include "src/stream/shard.hpp"

#include <exception>
#include <future>
#include <latch>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "src/par/parallel.hpp"
#include "src/par/thread_pool.hpp"
#include "src/stream/columnar_filters.hpp"
#include "src/trace/packet_trace.hpp"

namespace wan::stream {

void partition_packets(const PacketColumns& in, std::size_t n_shards,
                       std::vector<PacketColumns>& out) {
  out.resize(n_shards);
  for (PacketColumns& o : out) o.clear();
  if (n_shards == 1) {
    out[0] = in;
    return;
  }
  // Shard ids once (one mix per row), then one select+gather per shard —
  // the same two-phase selection idiom as the columnar filters.
  std::vector<std::uint32_t> ids(in.size());
  const std::uint32_t* conn = in.conn_id.data();
  for (std::size_t i = 0; i < in.size(); ++i)
    ids[i] = static_cast<std::uint32_t>(shard_of(conn[i], n_shards));
  std::vector<std::uint32_t> sel;
  for (std::size_t s = 0; s < n_shards; ++s) {
    sel.clear();
    for (std::size_t i = 0; i < ids.size(); ++i)
      if (ids[i] == s) sel.push_back(static_cast<std::uint32_t>(i));
    if (sel.empty()) continue;
    gather(in, sel, out[s]);
  }
}

ShardRouter::ShardRouter(ShardRouterOptions options) : options_(options) {
  if (options_.n_shards == 0 || options_.n_shards > kMaxShards)
    throw std::invalid_argument("ShardRouter: n_shards must be in [1, " +
                                std::to_string(kMaxShards) + "]");
}

// Inline when a single worker (or a single shard) makes queues
// pointless, bounded queues + pool consumers otherwise. The per-shard
// sub-chunk sequences are identical either way: partition is
// deterministic and each shard's queue preserves order.
void ShardRouter::route(
    PacketColumnSource& source,
    const std::function<void(std::size_t, const PacketColumns&)>& consume) {
  const std::size_t n = options_.n_shards;
  if (n == 1) {
    PacketColumns chunk;
    while (source.next(chunk))
      if (!chunk.empty()) consume(0, chunk);
    return;
  }

  if (par::thread_count() == 1) {
    PacketColumns chunk;
    std::vector<PacketColumns> parts;
    while (source.next(chunk)) {
      partition_packets(chunk, n, parts);
      for (std::size_t s = 0; s < n; ++s)
        if (!parts[s].empty()) consume(s, parts[s]);
    }
    return;
  }

  std::vector<std::unique_ptr<BoundedChunkQueue<PacketColumns>>> queues;
  queues.reserve(n);
  for (std::size_t s = 0; s < n; ++s)
    queues.push_back(std::make_unique<BoundedChunkQueue<PacketColumns>>(
        options_.queue_chunks));

  // One long-lived consumer per shard. The pool must hold at least n
  // workers or a parked consumer task would never start while the pump
  // blocks on its full queue. The pump also waits until every consumer
  // runs on a worker: a source whose next() calls par::parallel_for
  // (sharded flow reconstruction) helps run queued pool tasks while it
  // waits, and a consumer it picked up there would block this thread on
  // a queue only this thread feeds.
  par::global_pool().grow(n);
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::future<void>> done;
  done.reserve(n);
  std::latch running(static_cast<std::ptrdiff_t>(n));
  for (std::size_t s = 0; s < n; ++s) {
    done.push_back(par::global_pool().submit([&, s] {
      running.count_down();
      PacketColumns c;
      try {
        while (queues[s]->pop(c)) consume(s, c);
      } catch (...) {
        errors[s] = std::current_exception();
        // Keep draining (close makes push a drop) so the pump never
        // blocks on a queue nobody reads.
        queues[s]->close();
        while (queues[s]->pop(c)) {
        }
      }
    }));
  }

  running.wait();
  PacketColumns chunk;
  std::vector<PacketColumns> parts;
  try {
    while (source.next(chunk)) {
      partition_packets(chunk, n, parts);
      for (std::size_t s = 0; s < n; ++s)
        if (!parts[s].empty()) queues[s]->push(std::move(parts[s]));
    }
  } catch (...) {
    for (auto& q : queues) q->close();
    for (auto& f : done) f.wait();
    throw;
  }
  for (auto& q : queues) q->close();
  for (auto& f : done) f.get();
  for (std::size_t s = 0; s < n; ++s)
    if (errors[s]) std::rethrow_exception(errors[s]);
}

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

// Consumer-local scratch; index s is touched only by shard s's consumer.
struct ShardScratch {
  std::vector<std::uint32_t> sel;
  PacketColumns filtered;
  PacketColumns kept;
};

}  // namespace

PipelineResult analyze_sharded(PacketColumnSource& source,
                               const PipelineOptions& options,
                               ShardRouterOptions shard_options) {
  ShardRouter router(shard_options);
  const std::size_t n = router.n_shards();
  if (n == 1) return analyze_columns(source, options);

  // The serial filter stack fixes the derived name and the grid; the
  // shards run its chunk kernels on their sub-chunks instead of
  // draining it.
  const CountTail tail(ColumnFilterStack(source, options).info(),
                       options.bin);
  std::vector<ShardScratch> scratch(n);
  const auto filter = [&](std::size_t s, const PacketColumns& chunk)
      -> const PacketColumns& {
    return filter_rows(chunk, options.protocol, options.orig_data_only,
                       scratch[s].sel, scratch[s].filtered);
  };

  // Pass 1 (outlier filter only): per-shard detectors over the filtered
  // sub-streams. A connection's rows all land in its shard, in stream
  // order, so the union of the per-shard outlier sets equals the serial
  // detector's set exactly.
  std::vector<std::set<std::uint32_t>> outliers(n);
  if (options.remove_outliers) {
    std::vector<trace::BulkOutlierDetector> detectors;
    detectors.reserve(n);
    for (std::size_t s = 0; s < n; ++s)
      detectors.emplace_back(options.outlier_max_bytes,
                             options.outlier_max_rate);
    router.route(source, [&](std::size_t s, const PacketColumns& chunk) {
      const PacketColumns& f = filter(s, chunk);
      for (std::size_t i = 0; i < f.size(); ++i)
        detectors[s].observe(f.row(i));
    });
    for (std::size_t s = 0; s < n; ++s) outliers[s] = detectors[s].outliers();
    source.reset();
  }

  // Pass 2: per-shard bin-count accumulation.
  ShardCounts counts(tail, n);
  router.route(source, [&](std::size_t s, const PacketColumns& chunk) {
    counts.add(s, drop_outlier_rows(filter(s, chunk), outliers[s],
                                    scratch[s].sel, scratch[s].kept));
  });
  return counts.finish(tail);
}

PipelineResult analyze_sharded_sources(
    const std::function<std::unique_ptr<PacketChunkSource>(std::size_t)>&
        make_shard,
    std::size_t n_shards, const PipelineOptions& options) {
  if (n_shards == 0 || n_shards > ShardRouter::kMaxShards)
    throw std::invalid_argument(
        "analyze_sharded_sources: n_shards must be in [1, " +
        std::to_string(ShardRouter::kMaxShards) + "]");

  // Shard 0's info IS the serial info (the factory contract), so the
  // filter stack over it fixes the derived name and the grid before
  // any shard runs.
  auto first = make_shard(0);
  const CountTail tail = [&] {
    ColumnsFromRows columns(*first);
    return CountTail(ColumnFilterStack(columns, options).info(), options.bin);
  }();
  ShardCounts counts(tail, n_shards);

  // Each shard is fully independent — its own source, its own filter
  // stack (including the outlier two-pass: the stack resets only this
  // shard's source) — so a flat parallel_for over shards is enough.
  // Grain 1: shards are the unit of work.
  par::parallel_for(0, n_shards, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t s = b; s < e; ++s) {
      auto source = s == 0 ? std::move(first) : make_shard(s);
      ColumnsFromRows columns(*source);
      ColumnFilterStack filtered(columns, options);
      PacketColumns chunk;
      while (filtered.next(chunk)) counts.add(s, chunk);
    }
  });
  return counts.finish(tail);
}

}  // namespace wan::stream
