// Columnar forms of the Section-IV preprocessing filters: the same
// predicates, verdicts and derived-trace name suffixes as the batch
// PacketTrace::filter, originator_data_packets and remove_bulk_outliers,
// applied to column chunks instead of by a per-record predicate call.
// The stateless filter builds a filtered chunk in two vectorizable
// loops (select indices, then gather columns); the bulk-outlier stage
// buffers the rows it reads. The record sequence each source emits is
// identical to its batch filter's trace, which is what keeps the
// columnar analysis path byte-compatible with analyze_batch.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "src/stream/columnar.hpp"

namespace wan::stream {

/// Stateless columnar row filter: by protocol (if set), then
/// originator-data (if requested) — the same predicates, order and
/// derived-name suffixes as chaining the batch filters, but the
/// predicates compose on one selection vector and a single gather
/// materializes the surviving rows (no intermediate chunk per
/// predicate). next() keeps pulling upstream chunks until at least one
/// row survives, so false still means exhausted.
class ColumnFilterSource final : public PacketColumnSource {
 public:
  ColumnFilterSource(PacketColumnSource& inner,
                     std::optional<trace::Protocol> protocol, bool orig_data);

  /// The upstream's, name suffixed, taken when first asked: a capture
  /// source may learn its range only by being read.
  const StreamInfo& info() const override;
  bool next(PacketColumns& chunk) override;
  void reset() override { inner_->reset(); }

 private:
  PacketColumnSource* inner_;
  mutable std::optional<StreamInfo> info_;
  std::optional<trace::Protocol> protocol_;
  bool orig_data_;
  PacketColumns buf_;
  std::vector<std::uint32_t> sel_;
};

/// Columnar PacketTrace::remove_bulk_outliers(), in one pass over the
/// upstream: the first next() or info() drains the upstream once into a
/// column buffer, observing every row through trace::BulkOutlierDetector,
/// then drops the outlier connections' rows from that buffer in place,
/// in order (so the rows are the batch filter's). The stage then emits the
/// buffer in chunks of `chunk_size` rows, and reset() replays it without
/// touching the upstream. Memory is 16 bytes per row that reaches the
/// stage (plus the vectors' growth) during the drain, then 16 bytes per
/// kept row; the detector's table lives only during the drain. The info
/// is the upstream's, taken after the drain, its name gaining
/// "/no-outliers".
class ColumnBulkOutlierSource final : public PacketColumnSource {
 public:
  explicit ColumnBulkOutlierSource(PacketColumnSource& inner,
                                   std::size_t chunk_size = kDefaultChunkSize)
      : inner_(&inner), chunk_size_(chunk_size) {}

  const StreamInfo& info() const override { return kept().info(); }
  bool next(PacketColumns& chunk) override { return kept().next(chunk); }
  void reset() override {
    if (kept_) kept_->reset();
  }

 private:
  /// The kept rows as a source, built by the drain on first use.
  ColumnTableSource& kept() const;

  PacketColumnSource* inner_;
  std::size_t chunk_size_;
  mutable PacketColumns rows_;
  mutable std::optional<ColumnTableSource> kept_;
};

}  // namespace wan::stream
