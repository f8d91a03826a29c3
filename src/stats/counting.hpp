// Count-process helpers: turning event (arrival) time sequences into the
// binned count series that variance-time plots, Whittle estimation and
// Appendix C analyses operate on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace wan::stats {

/// Number of events in each bin of width `bin` covering [t0, t1).
/// Events outside [t0, t1), NaN included, are ignored. times need not
/// be sorted.
std::vector<double> bin_counts(std::span<const double> times, double t0,
                               double t1, double bin);

/// ceil((t1 - t0) / bin), the number of bins of that grid. Throws
/// std::invalid_argument, naming bin and span, unless the quotient is
/// finite, nonnegative and fits in size_t.
std::size_t bin_grid_size(double t0, double t1, double bin);

/// Streaming sink form of bin_counts: feed event times chunk by chunk
/// (any order) and take the finished count series. Memory is bounded by
/// the number of bins — duration/bin — never by the number of events,
/// and the result is identical to bin_counts on the concatenated times
/// (bin increments are exact integer adds, so order cannot matter).
class BinCountsAccumulator {
 public:
  /// Throws std::invalid_argument unless bin > 0, t1 > t0 and the grid
  /// size is representable (bin_grid_size).
  BinCountsAccumulator(double t0, double t1, double bin);

  void add(double t);

  /// Column form: identical counts to calling add(t) per element (bin
  /// increments are exact integer adds), but the bin-index computation
  /// runs as a tight two-phase loop over the contiguous time column —
  /// compute indices (vectorizes: compare, subtract, divide, convert),
  /// then scatter the increments — instead of a branchy divide per call.
  void add(std::span<const double> times);

  std::size_t bins() const { return counts_.size(); }
  const std::vector<double>& counts() const { return counts_; }
  /// Moves the counts out; the accumulator is empty afterwards.
  std::vector<double> take() { return std::move(counts_); }

  double t0() const { return t0_; }
  double t1() const { return t1_; }
  double bin() const { return bin_; }

  /// Adds the other accumulator's counts bin by bin. Both must cover the
  /// identical [t0, t1)/bin grid (throws std::invalid_argument
  /// otherwise). Counts are exact integer adds, so merging per-shard
  /// accumulators in ANY order or tree shape yields the same bits as one
  /// accumulator fed every event — this is the exactness anchor the
  /// sharded pipeline's byte-identity rests on.
  void merge(const BinCountsAccumulator& other);

 private:
  double t0_ = 0.0;
  double t1_ = 0.0;
  double bin_ = 1.0;
  std::vector<double> counts_;
  std::vector<std::int32_t> idx_scratch_;  ///< add(span) phase-1 output
};

/// Aggregates a count series by non-overlapping blocks of m, *averaging*
/// within each block (the paper's "smoothed" process of aggregation
/// level M). A trailing partial block is dropped.
std::vector<double> aggregate_mean(std::span<const double> x, std::size_t m);

/// What repeated aggregate_mean(., 2) leaves once at most max_len values
/// remain, bit for bit. With k the fewest halvings for which
/// (x.size() >> k) <= max_len, output j is the same pairwise tree of
/// means over x[j·2^k, (j+1)·2^k), evaluated block by block in a
/// 2^(k-1)-value scratch: neither a copy of x nor any intermediate level
/// is held. A series already at most max_len long comes back as a copy.
std::vector<double> aggregate_halvings(std::span<const double> x,
                                       std::size_t max_len);

/// Same but summing within blocks (the count view at coarser resolution).
std::vector<double> aggregate_sum(std::span<const double> x, std::size_t m);

/// Burst/lull structure of a count series in the sense of Appendix C:
/// a bin is "occupied" if its count exceeds zero; a burst is a maximal
/// run of occupied bins and a lull a maximal run of empty bins.
struct BurstLull {
  std::vector<std::size_t> burst_lengths;  ///< in bins
  std::vector<std::size_t> lull_lengths;   ///< in bins
  double mean_burst_bins() const;
  double mean_lull_bins() const;
};

BurstLull burst_lull_structure(std::span<const double> counts);

/// Online form of burst_lull_structure: push bin counts one at a time;
/// finish() closes the open run. State between pushes is O(1); the
/// result holds one length per run (kept in series order so that two
/// accumulators over adjacent sub-series merge by concatenation, the
/// boundary runs fusing when their occupancy matches).
/// burst_lull_structure delegates here, so streamed and in-memory
/// analyses agree exactly.
class BurstLullAccumulator {
 public:
  void push(double count);
  /// Column form: same run-length results as push(count) per element,
  /// as one sequential scan of the contiguous count series.
  void push(std::span<const double> counts) {
    for (double c : counts) push(c);
  }
  /// The runs so far, the open one included; push() may continue
  /// afterwards (finish does not mutate).
  BurstLull finish() const;

  /// Appends the other accumulator's run sequence to this one, as if its
  /// observations had been pushed here next. Run lengths are exact
  /// integer adds and the splice is pure concatenation (the boundary
  /// pair fusing when occupancy matches), so merge is truly associative:
  /// any merge tree over an ordered shard partition of the series gives
  /// the same bits as one serial pass — but only when each operand saw a
  /// contiguous slice and operands arrive in series order.
  void merge(const BurstLullAccumulator& other);

 private:
  struct Run {
    std::size_t length = 0;
    bool occupied = false;
  };
  std::vector<Run> runs_;   ///< closed runs, series order
  std::size_t run_ = 0;     ///< open run length; 0 iff nothing pushed
  bool occupied_ = false;   ///< open run occupancy
};

}  // namespace wan::stats
