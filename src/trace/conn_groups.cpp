#include "src/trace/conn_groups.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace wan::trace {

namespace {

constexpr std::uint32_t kSkipped = std::numeric_limits<std::uint32_t>::max();

std::uint64_t fmix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// Dense ids for distinct keys, in order of first appearance: linear
// probing over a power-of-two slot array (id + 1; 0 is empty) that
// doubles before it is half full.
class IdTable {
 public:
  IdTable()
      : salt_(fmix64(static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count()))),
        slots_(1024, 0) {}

  std::uint32_t id(const GroupKey& k, std::vector<GroupKey>& keys) {
    std::size_t i = hash(k);
    while (const std::uint32_t s = slots_[i]) {
      if (keys[s - 1] == k) return s - 1;
      i = (i + 1) & (slots_.size() - 1);
    }
    keys.push_back(k);
    slots_[i] = static_cast<std::uint32_t>(keys.size());
    if (2 * keys.size() >= slots_.size()) grow(keys);
    return static_cast<std::uint32_t>(keys.size() - 1);
  }

 private:
  std::size_t hash(const GroupKey& k) const {
    return fmix64(fmix64(k.hi ^ salt_) ^ k.lo) & (slots_.size() - 1);
  }

  void grow(const std::vector<GroupKey>& keys) {
    slots_.assign(2 * slots_.size(), 0);
    for (std::size_t id = 0; id < keys.size(); ++id) {
      std::size_t i = hash(keys[id]);
      while (slots_[i] != 0) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = static_cast<std::uint32_t>(id + 1);
    }
  }

  std::uint64_t salt_;
  std::vector<std::uint32_t> slots_;
};

}  // namespace

ConnGroups::ConnGroups(const ConnTrace& trace, KeyFn key,
                       std::optional<Protocol> only) {
  const std::vector<ConnRecord>& records = trace.records();
  if (records.size() > kSkipped)
    throw std::length_error("ConnGroups: 2^32 records or more");

  // Pass 1: a dense id per selected record, and each id's count.
  std::vector<std::uint32_t> ids(records.size(), kSkipped);
  std::vector<GroupKey> keys;
  std::vector<std::uint32_t> counts;
  IdTable table;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (only && records[i].protocol != *only) continue;
    const std::uint32_t id = table.id(key(records[i]), keys);
    if (id == counts.size()) counts.push_back(0);
    ++counts[id];
    ids[i] = id;
  }

  // Only the distinct keys are sorted; rank[id] is the group's index.
  std::vector<std::uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return keys[a] < keys[b];
  });
  std::vector<std::uint32_t> rank(keys.size());
  keys_.reserve(keys.size());
  offset_.assign(keys.size() + 1, 0);
  for (std::size_t g = 0; g < order.size(); ++g) {
    rank[order[g]] = static_cast<std::uint32_t>(g);
    keys_.push_back(keys[order[g]]);
    offset_[g + 1] = offset_[g] + counts[order[g]];
  }

  // Pass 2: scatter in trace order, so each group is in trace order.
  member_.resize(offset_.back());
  start_.resize(offset_.back());
  std::vector<std::uint32_t> next(offset_.begin(), offset_.end() - 1);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (ids[i] == kSkipped) continue;
    const std::uint32_t at = next[rank[ids[i]]]++;
    member_[at] = static_cast<std::uint32_t>(i);
    start_[at] = records[i].start;
  }

  // A sorted trace leaves every group sorted; otherwise a stable sort
  // by start keeps equal starts in trace order.
  std::vector<std::pair<double, std::uint32_t>> tmp;
  for (std::size_t g = 0; g + 1 < offset_.size(); ++g) {
    const auto begin = start_.begin() + offset_[g];
    const auto end = start_.begin() + offset_[g + 1];
    if (std::is_sorted(begin, end)) continue;
    tmp.clear();
    for (std::uint32_t at = offset_[g]; at < offset_[g + 1]; ++at)
      tmp.emplace_back(start_[at], member_[at]);
    std::stable_sort(tmp.begin(), tmp.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    for (std::uint32_t at = offset_[g]; at < offset_[g + 1]; ++at)
      std::tie(start_[at], member_[at]) = tmp[at - offset_[g]];
  }
}

std::optional<std::size_t> ConnGroups::find(const GroupKey& k) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), k);
  if (it == keys_.end() || *it != k) return std::nullopt;
  return static_cast<std::size_t>(it - keys_.begin());
}

}  // namespace wan::trace
