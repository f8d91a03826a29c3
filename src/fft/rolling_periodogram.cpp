#include "src/fft/rolling_periodogram.hpp"

#include <algorithm>
#include <stdexcept>

namespace wan::fft {

SegmentRing::SegmentRing(std::size_t segment_length, std::size_t capacity)
    : segment_length_(segment_length), capacity_(capacity) {
  if (segment_length < 4 || segment_length % 2 != 0)
    throw std::invalid_argument(
        "SegmentRing: segment_length must be even and >= 4");
  if (capacity == 0)
    throw std::invalid_argument("SegmentRing: capacity must be >= 1");
  n_ordinates_ = (segment_length - 1) / 2;
  slots_.assign(capacity_ * n_ordinates_, 0.0);
}

void SegmentRing::push_segment(std::span<const double> x) {
  if (x.size() != segment_length_)
    throw std::invalid_argument("SegmentRing::push_segment: segment size");
  const Periodogram p = periodogram(x);
  double* slot = slots_.data() + head_ * n_ordinates_;
  for (std::size_t i = 0; i < n_ordinates_; ++i) slot[i] = p.ordinate[i];
  head_ = (head_ + 1) % capacity_;
  ++total_;
}

void SegmentRing::push_samples(std::span<const double> xs) {
  std::size_t i = 0;
  while (i < xs.size()) {
    if (pending_.empty() && xs.size() - i >= segment_length_) {
      // Whole segments pass straight through, no staging copy.
      push_segment(xs.subspan(i, segment_length_));
      i += segment_length_;
      continue;
    }
    const std::size_t want = segment_length_ - pending_.size();
    const std::size_t take = std::min(want, xs.size() - i);
    pending_.insert(pending_.end(), xs.begin() + i, xs.begin() + i + take);
    i += take;
    if (pending_.size() == segment_length_) {
      push_segment(pending_);
      pending_.clear();
    }
  }
}

std::size_t SegmentRing::segments() const {
  return total_ < capacity_ ? static_cast<std::size_t>(total_) : capacity_;
}

Periodogram SegmentRing::finish() const {
  const AveragedPeriodogram acc = averaged();
  return acc.finish();
}

AveragedPeriodogram SegmentRing::averaged() const {
  const std::size_t n = segments();
  if (n == 0)
    throw std::logic_error("SegmentRing: no complete segment yet");
  AveragedPeriodogram acc(segment_length_);
  acc.segments_ = n;
  // Sum resident segments oldest first: when the ring is full the
  // oldest slot is head_ (the next overwrite target), otherwise slot 0.
  // This is the order AveragedPeriodogram::push would have added them
  // in, so the sums are bit-identical to the batch accumulator's.
  const std::size_t start = total_ < capacity_ ? 0 : head_;
  for (std::size_t k = 0; k < n; ++k) {
    const double* slot =
        slots_.data() + ((start + k) % capacity_) * n_ordinates_;
    for (std::size_t i = 0; i < n_ordinates_; ++i)
      acc.ordinate_sum_[i] += slot[i];
  }
  return acc;
}

SegmentRingCascade::SegmentRingCascade(std::size_t segment_length,
                                       std::size_t base_capacity,
                                       std::size_t levels) {
  const std::size_t div = std::size_t{1} << levels;
  if (base_capacity % div != 0 || base_capacity / div == 0)
    throw std::invalid_argument(
        "SegmentRingCascade: base_capacity must be a nonzero multiple of "
        "2^levels so every level's ring spans the same window");
  rings_.reserve(levels + 1);
  for (std::size_t l = 0; l <= levels; ++l)
    rings_.emplace_back(segment_length, base_capacity >> l);
  carry_.assign(levels + 1, 0.0);
  has_carry_.assign(levels + 1, false);
}

void SegmentRingCascade::push_samples(std::span<const double> xs) {
  // Level 0 takes the span in one go; deeper levels fold pairs one
  // sample at a time (each level runs at half the previous rate, so
  // the scalar path is not the hot one).
  rings_[0].push_samples(xs);
  for (const double v : xs) {
    double value = v;
    for (std::size_t l = 0; l + 1 < rings_.size(); ++l) {
      if (!has_carry_[l]) {
        carry_[l] = value;
        has_carry_[l] = true;
        break;
      }
      // Same arithmetic as aggregate_mean(., 2): sum then divide.
      value = (carry_[l] + value) / 2.0;
      has_carry_[l] = false;
      rings_[l + 1].push_samples(std::span<const double>(&value, 1));
    }
  }
}

}  // namespace wan::fft
