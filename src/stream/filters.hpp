// Streaming forms of the Section-IV preprocessing filters. Each wraps
// an upstream PacketChunkSource (non-owning — the caller keeps the
// stages alive, typically on the stack) and uses the same predicates /
// name suffixes as the batch PacketTrace methods, so collect(filtered
// stream) equals the batch-filtered trace record for record.
#pragma once

#include <functional>
#include <string>

#include "src/stream/chunk.hpp"

namespace wan::stream {

/// Stateless record filter: keeps records matching the predicate. next()
/// keeps pulling upstream chunks until it has at least one record, so
/// false still means exhausted even when the filter is very selective.
class FilterSource final : public PacketChunkSource {
 public:
  using Predicate = std::function<bool(const trace::PacketRecord&)>;

  /// `name_suffix` is appended to the upstream name, mirroring the batch
  /// filters' derived-trace names.
  FilterSource(PacketChunkSource& inner, std::string name_suffix,
               Predicate pred);

  const StreamInfo& info() const override { return info_; }
  bool next(std::vector<trace::PacketRecord>& chunk) override;
  void reset() override { inner_->reset(); }

 private:
  PacketChunkSource* inner_;
  StreamInfo info_;
  Predicate pred_;
  std::vector<trace::PacketRecord> buf_;
};

/// Streaming PacketTrace::filter(protocol): name gains "/<protocol>".
FilterSource protocol_filter(PacketChunkSource& inner,
                             trace::Protocol protocol);

/// Streaming PacketTrace::originator_data_packets(): originator-side
/// packets carrying user data; name gains "/orig-data".
FilterSource originator_data_filter(PacketChunkSource& inner);

/// Streaming PacketTrace::remove_bulk_outliers(), the row reference of
/// the columnar ColumnBulkOutlierSource. The outlier rule needs a
/// connection's total bytes before deciding, so this is an explicit
/// two-pass source: the first next() drains the upstream once through a
/// BulkOutlierDetector (O(#connections) state), resets it, then streams
/// the filtered second pass. Name gains "/no-outliers".
class BulkOutlierSource final : public PacketChunkSource {
 public:
  explicit BulkOutlierSource(PacketChunkSource& inner);

  const StreamInfo& info() const override { return info_; }
  bool next(std::vector<trace::PacketRecord>& chunk) override;
  void reset() override;

 private:
  void scan_outliers();

  PacketChunkSource* inner_;
  StreamInfo info_;
  bool scanned_ = false;
  trace::BulkOutlierDetector detector_;
  std::vector<trace::PacketRecord> buf_;
};

}  // namespace wan::stream
