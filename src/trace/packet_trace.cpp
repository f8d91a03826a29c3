#include "src/trace/packet_trace.hpp"

#include <algorithm>
#include <set>

namespace wan::trace {

void PacketTrace::sort_by_time() {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const PacketRecord& a, const PacketRecord& b) {
                     return a.time < b.time;
                   });
}

PacketTrace PacketTrace::filter(Protocol protocol) const {
  PacketTrace out(name_ + "/" + std::string(to_string(protocol)), t_begin_,
                  t_end_);
  for (const PacketRecord& r : records_) {
    if (r.protocol == protocol) out.add(r);
  }
  return out;
}

PacketTrace PacketTrace::originator_data_packets() const {
  PacketTrace out(name_ + "/orig-data", t_begin_, t_end_);
  for (const PacketRecord& r : records_) {
    if (r.from_originator && r.payload_bytes > 0) out.add(r);
  }
  return out;
}

PacketTrace PacketTrace::remove_bulk_outliers() const {
  BulkOutlierDetector det;
  for (const PacketRecord& r : records_) det.observe(r);
  const std::set<std::uint32_t> outliers = det.outliers();
  PacketTrace out(name_ + "/no-outliers", t_begin_, t_end_);
  for (const PacketRecord& r : records_) {
    if (!outliers.contains(r.conn_id)) out.add(r);
  }
  return out;
}

void BulkOutlierDetector::observe(const PacketRecord& r) {
  if (!r.from_originator) return;
  ConnAgg& a = agg_[r.conn_id];
  if (!a.seen) {
    a.first = r.time;
    a.seen = true;
  }
  a.last = std::max(a.last, r.time);
  a.first = std::min(a.first, r.time);
  a.bytes += r.payload_bytes;
}

std::set<std::uint32_t> BulkOutlierDetector::outliers() const {
  std::set<std::uint32_t> out;
  for (const auto& [id, a] : agg_) {
    const double span = std::max(a.last - a.first, 1.0);
    if (a.bytes > kBulkOutlierMaxBytes &&
        a.bytes / span > kBulkOutlierMaxRate)
      out.insert(id);
  }
  return out;
}

std::vector<double> PacketTrace::packet_times() const {
  std::vector<double> times;
  times.reserve(records_.size());
  for (const PacketRecord& r : records_) times.push_back(r.time);
  std::sort(times.begin(), times.end());
  return times;
}

std::vector<double> PacketTrace::packet_times(Protocol protocol) const {
  std::vector<double> times;
  for (const PacketRecord& r : records_) {
    if (r.protocol == protocol) times.push_back(r.time);
  }
  std::sort(times.begin(), times.end());
  return times;
}

std::size_t PacketTrace::connection_count() const {
  std::set<std::uint32_t> ids;
  for (const PacketRecord& r : records_) ids.insert(r.conn_id);
  return ids.size();
}

std::vector<PacketSummaryRow> PacketTrace::summary() const {
  std::map<Protocol, PacketSummaryRow> rows;
  for (const PacketRecord& r : records_) {
    PacketSummaryRow& row = rows[r.protocol];
    row.protocol = r.protocol;
    row.packets += 1;
    row.payload_bytes += r.payload_bytes;
  }
  std::vector<PacketSummaryRow> out;
  out.reserve(rows.size());
  for (const auto& [proto, row] : rows) out.push_back(row);
  return out;
}

}  // namespace wan::trace
