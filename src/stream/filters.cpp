#include "src/stream/filters.hpp"

#include <utility>

namespace wan::stream {

FilterSource::FilterSource(PacketChunkSource& inner, std::string name_suffix,
                           Predicate pred)
    : inner_(&inner),
      info_{inner.info().name + std::move(name_suffix), inner.info().t_begin,
            inner.info().t_end},
      pred_(std::move(pred)) {}

bool FilterSource::next(std::vector<trace::PacketRecord>& chunk) {
  chunk.clear();
  while (chunk.empty()) {
    if (!inner_->next(buf_)) return false;
    for (const trace::PacketRecord& r : buf_) {
      if (pred_(r)) chunk.push_back(r);
    }
  }
  return true;
}

FilterSource protocol_filter(PacketChunkSource& inner,
                             trace::Protocol protocol) {
  return FilterSource(inner, "/" + std::string(trace::to_string(protocol)),
                      [protocol](const trace::PacketRecord& r) {
                        return r.protocol == protocol;
                      });
}

FilterSource originator_data_filter(PacketChunkSource& inner) {
  return FilterSource(inner, "/orig-data", [](const trace::PacketRecord& r) {
    return r.from_originator && r.payload_bytes > 0;
  });
}

BulkOutlierSource::BulkOutlierSource(PacketChunkSource& inner)
    : inner_(&inner),
      info_{inner.info().name + "/no-outliers", inner.info().t_begin,
            inner.info().t_end} {}

void BulkOutlierSource::scan_outliers() {
  while (inner_->next(buf_)) {
    for (const trace::PacketRecord& r : buf_) detector_.observe(r);
  }
  detector_.finish();
  inner_->reset();
  scanned_ = true;
}

bool BulkOutlierSource::next(std::vector<trace::PacketRecord>& chunk) {
  if (!scanned_) scan_outliers();
  chunk.clear();
  while (chunk.empty()) {
    if (!inner_->next(buf_)) return false;
    for (const trace::PacketRecord& r : buf_) {
      if (!detector_.is_outlier(r.conn_id)) chunk.push_back(r);
    }
  }
  return true;
}

void BulkOutlierSource::reset() {
  // The verdicts are a function of the (replayable) upstream, so a
  // second pass reuses them rather than rescanning.
  inner_->reset();
}

}  // namespace wan::stream
