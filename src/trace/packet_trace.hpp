// PacketTrace: a packet-level trace (Table II style) with the filtering
// Section IV applies before analysis (originator side only, pure acks
// removed, bulk-transfer outliers removed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/records.hpp"

namespace wan::trace {

/// Per-protocol row of a Table-II style summary.
struct PacketSummaryRow {
  Protocol protocol = Protocol::kOther;
  std::size_t packets = 0;
  std::uint64_t payload_bytes = 0;
};

class PacketTrace {
 public:
  PacketTrace() = default;
  PacketTrace(std::string name, double t_begin, double t_end)
      : name_(std::move(name)), t_begin_(t_begin), t_end_(t_end) {}

  const std::string& name() const { return name_; }
  double t_begin() const { return t_begin_; }
  double t_end() const { return t_end_; }
  double duration() const { return t_end_ - t_begin_; }

  void add(const PacketRecord& rec) { records_.push_back(rec); }
  void reserve(std::size_t n) { records_.reserve(n); }
  const std::vector<PacketRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  /// Stable: equal timestamps keep insertion order, so a sorted trace is
  /// a well-defined function of its record sequence (the streaming layer
  /// relies on this to reproduce batch output by ordered merging).
  void sort_by_time();

  /// New trace with only `protocol` packets.
  PacketTrace filter(Protocol protocol) const;

  /// Section IV's preprocessing: keep only originator packets carrying
  /// user data (drops pure acks and responder packets).
  PacketTrace originator_data_packets() const;

  /// Section IV's outlier rule: drop connections whose originator sent
  /// more than kBulkOutlierMaxBytes at a sustained rate above
  /// kBulkOutlierMaxRate ("anomalously large and rapid ... probably
  /// better modeled as bulk transfer").
  PacketTrace remove_bulk_outliers() const;

  /// Packet timestamps, sorted; optionally for a single protocol.
  std::vector<double> packet_times() const;
  std::vector<double> packet_times(Protocol protocol) const;

  /// Number of distinct connection ids present.
  std::size_t connection_count() const;

  std::vector<PacketSummaryRow> summary() const;

 private:
  std::string name_;
  double t_begin_ = 0.0;
  double t_end_ = 0.0;
  std::vector<PacketRecord> records_;
};

/// Section IV's outlier thresholds: the paper's 2^10 bytes at a
/// sustained 8 bytes/s.
inline constexpr double kBulkOutlierMaxBytes = 1024.0;
inline constexpr double kBulkOutlierMaxRate = 8.0;  ///< bytes/s

/// The Section-IV outlier rule, in one place for every path (the batch
/// PacketTrace::remove_bulk_outliers and the columnar stream stage):
/// observe every row, call finish() once the input is done,
/// then ask is_outlier(conn). A connection is an outlier when its
/// originator sent more than kBulkOutlierMaxBytes at a sustained rate
/// above kBulkOutlierMaxRate, the span being its first to its last
/// originator time (at least 1 s). Row order does not matter.
///
/// Connections live in one flat open-addressing table keyed by conn
/// id, 32 bytes a slot, that doubles whenever more than half its slots
/// would be in use: it is sized by the connections seen, never by the
/// largest id, since trace files carry arbitrary 32-bit ids.
class BulkOutlierDetector {
 public:
  /// One row; responder rows do not count.
  void observe(double time, std::uint32_t conn, bool from_originator,
               std::uint16_t payload_bytes) {
    if (from_originator) add(time, conn, payload_bytes);
  }
  void observe(const PacketRecord& r) {
    observe(r.time, r.conn_id, r.from_originator, r.payload_bytes);
  }

  /// Scores every connection observed; returns how many are outliers.
  std::size_t finish();

  /// After finish(): whether `conn` is an outlier (an id never observed
  /// is not).
  bool is_outlier(std::uint32_t conn) const;

  /// Table slots held: a power of two, 0 before the first row.
  std::size_t slots() const { return slots_.size(); }

 private:
  struct Slot {
    double first = 0.0;
    double last = 0.0;
    double bytes = 0.0;
    std::uint32_t conn = 0;
    bool used = false;
    bool outlier = false;
  };

  void add(double time, std::uint32_t conn, std::uint16_t payload_bytes);
  /// The slot holding `conn`, or the empty slot where it would go.
  std::size_t find(std::uint32_t conn) const;
  void grow();

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

}  // namespace wan::trace
