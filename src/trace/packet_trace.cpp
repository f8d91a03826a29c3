#include "src/trace/packet_trace.hpp"

#include <algorithm>
#include <bit>
#include <map>
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
  det.finish();
  PacketTrace out(name_ + "/no-outliers", t_begin_, t_end_);
  for (const PacketRecord& r : records_) {
    if (!det.is_outlier(r.conn_id)) out.add(r);
  }
  return out;
}

std::size_t BulkOutlierDetector::find(std::uint32_t conn) const {
  // Fibonacci hashing, the product's top bits: flow tables number
  // connections 1, 2, 3, ..., and the golden-ratio multiply spreads such
  // runs evenly over the slots.
  const int bits = std::countr_zero(slots_.size());
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(conn) * 0x9E3779B97F4A7C15ull) >>
      (64 - bits));
  while (slots_[i].used && slots_[i].conn != conn) i = (i + 1) & mask;
  return i;
}

void BulkOutlierDetector::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  for (const Slot& s : old) {
    if (s.used) slots_[find(s.conn)] = s;
  }
}

void BulkOutlierDetector::add(double time, std::uint32_t conn,
                              std::uint16_t payload_bytes) {
  // At most half the slots in use keeps every probe short.
  if (2 * (used_ + 1) > slots_.size()) grow();
  Slot& a = slots_[find(conn)];
  if (!a.used) {
    a.used = true;
    a.conn = conn;
    a.first = a.last = time;
    ++used_;
  }
  a.last = std::max(a.last, time);
  a.first = std::min(a.first, time);
  a.bytes += payload_bytes;
}

std::size_t BulkOutlierDetector::finish() {
  std::size_t n = 0;
  for (Slot& a : slots_) {
    if (!a.used) continue;
    const double span = std::max(a.last - a.first, 1.0);
    a.outlier = a.bytes > kBulkOutlierMaxBytes &&
                a.bytes / span > kBulkOutlierMaxRate;
    n += a.outlier ? 1 : 0;
  }
  return n;
}

bool BulkOutlierDetector::is_outlier(std::uint32_t conn) const {
  if (slots_.empty()) return false;
  const Slot& a = slots_[find(conn)];
  return a.used && a.outlier;
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
