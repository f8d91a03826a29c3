#include "src/stream/columnar_filters.hpp"

#include <utility>

namespace wan::stream {

namespace {

std::string filter_suffix(const std::optional<trace::Protocol>& protocol,
                          bool orig_data) {
  // The suffixes the batch filters would chain, in their order.
  std::string s;
  if (protocol) {
    s += '/';
    s += trace::to_string(*protocol);
  }
  if (orig_data) s += "/orig-data";
  return s;
}

// The stateless filter kernel: keeps the rows of `in` that match
// `protocol` (if set) and carry originator user data (if `orig_data`),
// evaluated as one selection pass and one gather. Returns `in` itself
// when no predicate is set or every row survives; otherwise gathers the
// survivors (possibly none) into `out` and returns it. `sel` is scratch.
const PacketColumns& filter_rows(const PacketColumns& in,
                                 const std::optional<trace::Protocol>& protocol,
                                 bool orig_data,
                                 std::vector<std::uint32_t>& sel,
                                 PacketColumns& out) {
  if (!protocol && !orig_data) return in;
  sel.clear();
  if (protocol && orig_data) {
    select_protocol_orig_data(in, *protocol, sel);
  } else if (protocol) {
    select_equal(in.protocol, *protocol, sel);
  } else {
    select_orig_data(in, sel);
  }
  if (sel.size() == in.size()) return in;
  gather(in, sel, out);
  return out;
}

// The bulk-outlier removal kernel: drops, in place and in order, the
// rows whose connection `det` (finished) marks an outlier.
void drop_outlier_rows(PacketColumns& rows,
                       const trace::BulkOutlierDetector& det) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (det.is_outlier(rows.conn_id[i])) continue;
    rows.time[k] = rows.time[i];
    rows.protocol[k] = rows.protocol[i];
    rows.conn_id[k] = rows.conn_id[i];
    rows.from_originator[k] = rows.from_originator[i];
    rows.payload_bytes[k] = rows.payload_bytes[i];
    ++k;
  }
  rows.time.resize(k);
  rows.protocol.resize(k);
  rows.conn_id.resize(k);
  rows.from_originator.resize(k);
  rows.payload_bytes.resize(k);
}

}  // namespace

ColumnFilterSource::ColumnFilterSource(PacketColumnSource& inner,
                                       std::optional<trace::Protocol> protocol,
                                       bool orig_data)
    : inner_(&inner), protocol_(protocol), orig_data_(orig_data) {}

const StreamInfo& ColumnFilterSource::info() const {
  if (!info_) {
    const StreamInfo& in = inner_->info();
    info_ = StreamInfo{in.name + filter_suffix(protocol_, orig_data_),
                       in.t_begin, in.t_end};
  }
  return *info_;
}

bool ColumnFilterSource::next(PacketColumns& chunk) {
  chunk.clear();
  while (chunk.empty()) {
    if (!inner_->next(buf_)) return false;
    if (&filter_rows(buf_, protocol_, orig_data_, sel_, chunk) == &buf_) {
      // No predicate, or every row survived: move the chunk through
      // instead of gathering.
      chunk = std::move(buf_);
      buf_.clear();
    }
  }
  return true;
}

ColumnTableSource& ColumnBulkOutlierSource::kept() const {
  if (!kept_) {
    trace::BulkOutlierDetector det;
    PacketColumns chunk;
    while (inner_->next(chunk)) {
      for (std::size_t i = 0; i < chunk.size(); ++i)
        det.observe(chunk.time[i], chunk.conn_id[i],
                    chunk.from_originator[i] != 0, chunk.payload_bytes[i]);
      rows_.append(chunk);
    }
    if (det.finish() > 0) drop_outlier_rows(rows_, det);
    rows_.shrink_to_fit();  // 16 bytes per kept row, no growth slack
    const StreamInfo& in = inner_->info();  // known once drained
    kept_.emplace(rows_, StreamInfo{in.name + "/no-outliers", in.t_begin,
                                    in.t_end},
                  chunk_size_);
  }
  return *kept_;
}

}  // namespace wan::stream
