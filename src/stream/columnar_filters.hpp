// Columnar forms of the Section-IV preprocessing filters: the same
// predicates and derived-trace name suffixes as filters.hpp, applied as
// selection-vector passes over column chunks instead of a per-record
// predicate call. A filtered chunk is built in two vectorizable loops
// (select indices, then gather columns); the record sequence each
// source emits is identical to its row twin's, which is what keeps the
// columnar analysis path byte-compatible with the row path.
#pragma once

#include <optional>
#include <set>
#include <string>

#include "src/stream/columnar.hpp"

namespace wan::stream {

/// Stateless columnar row filter: by protocol (if set), then
/// originator-data (if requested) — the same predicates, order and
/// derived-name suffixes as stacking the row filters, but the
/// predicates compose on one selection vector and a single gather
/// materializes the surviving rows (no intermediate chunk per
/// predicate). next() keeps pulling upstream chunks until at least one
/// row survives, so false still means exhausted — the FilterSource
/// contract.
class ColumnFilterSource final : public PacketColumnSource {
 public:
  ColumnFilterSource(PacketColumnSource& inner,
                     std::optional<trace::Protocol> protocol, bool orig_data);

  const StreamInfo& info() const override { return info_; }
  bool next(PacketColumns& chunk) override;
  void reset() override { inner_->reset(); }

 private:
  PacketColumnSource* inner_;
  StreamInfo info_;
  std::optional<trace::Protocol> protocol_;
  bool orig_data_;
  PacketColumns buf_;
  std::vector<std::uint32_t> sel_;
};

/// Columnar PacketTrace::remove_bulk_outliers(): the same explicit
/// two-pass shape as BulkOutlierSource — the first next() drains the
/// upstream through trace::BulkOutlierDetector (observing rows in
/// order, so the outlier set is identical to the row path's), resets
/// it, then streams the second pass dropping the flagged connections
/// via a selection pass over the conn-id column. Name gains
/// "/no-outliers".
class ColumnBulkOutlierSource final : public PacketColumnSource {
 public:
  explicit ColumnBulkOutlierSource(PacketColumnSource& inner);

  const StreamInfo& info() const override { return info_; }
  bool next(PacketColumns& chunk) override;
  void reset() override;

 private:
  void scan_outliers();

  PacketColumnSource* inner_;
  StreamInfo info_;
  bool scanned_ = false;
  std::set<std::uint32_t> outliers_;
  PacketColumns buf_;
  std::vector<std::uint32_t> sel_;
};

}  // namespace wan::stream
