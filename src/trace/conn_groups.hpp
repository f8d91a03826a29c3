// The grouping kernel of the connection analyses: the records of a
// ConnTrace grouped by a key, in one hashing pass and one scatter.
// Periodic-stream detection groups by (src, dst, protocol), the FTPDATA
// burst and spacing analyses by session id or host pair, and the Fig. 2
// report by protocol (DESIGN.md §16).
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/trace/conn_trace.hpp"

namespace wan::trace {

/// A group's key. Groups come out in ascending (hi, lo) order.
struct GroupKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  auto operator<=>(const GroupKey&) const = default;
};

/// The records of a trace grouped by key: groups in ascending key
/// order, each holding its records' trace positions and start times
/// contiguously, ordered by start with ties in trace order. Ids come
/// from a flat open-addressing table whose hash is salted per call, so
/// keys read from a file cannot steer it into long probe chains; the
/// grouping itself never depends on hash values.
class ConnGroups {
 public:
  using KeyFn = GroupKey (*)(const ConnRecord&);

  /// Groups the records of `trace` by `key`; only those of protocol
  /// `only` when it is given. Throws std::length_error if the trace
  /// holds 2^32 records or more.
  ConnGroups(const ConnTrace& trace, KeyFn key,
             std::optional<Protocol> only = std::nullopt);

  std::size_t size() const { return keys_.size(); }
  const GroupKey& key(std::size_t g) const { return keys_[g]; }
  /// Trace positions of group `g`'s records, by start.
  std::span<const std::uint32_t> members(std::size_t g) const {
    return std::span<const std::uint32_t>(member_).subspan(
        offset_[g], offset_[g + 1] - offset_[g]);
  }
  /// Start times of group `g`'s records, ascending.
  std::span<const double> starts(std::size_t g) const {
    return std::span<const double>(start_).subspan(
        offset_[g], offset_[g + 1] - offset_[g]);
  }
  /// The group whose key is `k`, if there is one.
  std::optional<std::size_t> find(const GroupKey& k) const;

 private:
  std::vector<GroupKey> keys_;          ///< ascending
  std::vector<std::uint32_t> offset_;   ///< size() + 1 bounds into member_
  std::vector<std::uint32_t> member_;
  std::vector<double> start_;
};

}  // namespace wan::trace
