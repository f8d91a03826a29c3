// ConnTrace: a SYN/FIN connection trace (Table I style) with the
// filtering and summarization operations Section III needs.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/trace/records.hpp"

namespace wan::trace {

/// Per-protocol row of a Table-I style summary.
struct ConnSummaryRow {
  Protocol protocol = Protocol::kOther;
  std::size_t connections = 0;
  std::uint64_t bytes = 0;
};

/// A trace of TCP connections.
class ConnTrace {
 public:
  ConnTrace() = default;
  ConnTrace(std::string name, double t_begin, double t_end)
      : name_(std::move(name)), t_begin_(t_begin), t_end_(t_end) {}
  /// Takes `records` in their given order; move them in to avoid a copy.
  ConnTrace(std::string name, double t_begin, double t_end,
            std::vector<ConnRecord> records)
      : name_(std::move(name)),
        t_begin_(t_begin),
        t_end_(t_end),
        records_(std::move(records)) {}

  const std::string& name() const { return name_; }
  double t_begin() const { return t_begin_; }
  double t_end() const { return t_end_; }
  double duration() const { return t_end_ - t_begin_; }

  void add(const ConnRecord& rec) { records_.push_back(rec); }
  void reserve(std::size_t n) { records_.reserve(n); }
  const std::vector<ConnRecord>& records() const { return records_; }
  /// Hands the records out by move, leaving the trace its name and
  /// window but no records: std::move(trace).take_records().
  std::vector<ConnRecord> take_records() && {
    return std::exchange(records_, {});
  }
  std::size_t size() const { return records_.size(); }

  /// Sorts records by start time (analysis code assumes this). Equal
  /// starts are ordered by the remaining fields (duration, protocol,
  /// src_host, dst_host, bytes_orig, bytes_resp, session_id), so the
  /// order is total: the same under any sort implementation.
  void sort_by_start();

  /// New trace containing only `protocol` connections.
  ConnTrace filter(Protocol protocol) const;

  /// Start times of all connections of `protocol`, sorted.
  std::vector<double> arrival_times(Protocol protocol) const;

  /// Connection counts / byte totals per protocol, for Table-I rows.
  std::vector<ConnSummaryRow> summary() const;

  /// Total payload bytes over all records.
  std::uint64_t total_bytes() const;

  /// Fraction of this protocol's daily connections starting within each
  /// hour-of-day bucket (Fig. 1). Buckets wrap modulo 24 h.
  std::vector<double> hourly_profile(Protocol protocol) const;

 private:
  std::string name_;
  double t_begin_ = 0.0;
  double t_end_ = 0.0;
  std::vector<ConnRecord> records_;
};

}  // namespace wan::trace
