#include "src/fft/plan.hpp"

#include <cmath>
#include <list>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "src/fft/fft.hpp"
#include "src/par/parallel.hpp"

namespace wan::fft {

namespace {

// Butterflies (or packed points) per parallel chunk. A fixed constant —
// never derived from the thread count — so the chunk layout, and with it
// the exact arithmetic each chunk performs, is a pure function of the
// transform size. Small transforms fit in one chunk and take a plain
// serial loop with no scheduling overhead.
constexpr std::size_t kButterflyGrain = 1 << 14;

// A tiny thread-safe LRU for plan sharing. Values are built *outside*
// the lock: a build may itself enter parallel regions (or another plan
// cache), and constructing under the mutex could re-enter it through the
// pool's help-while-waiting drain. Losing a build race just means one
// redundant construction; the first inserted plan wins.
template <class Key, class Value>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  template <class Make>
  std::shared_ptr<const Value> get_or_create(const Key& key,
                                             const Make& make) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto it = index_.find(key); it != index_.end()) {
        ++hits_;
        order_.splice(order_.begin(), order_, it->second);
        return it->second->second;
      }
      ++misses_;
    }
    std::shared_ptr<const Value> built = make();
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = index_.find(key); it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return it->second->second;
    }
    order_.emplace_front(key, built);
    index_[key] = order_.begin();
    while (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    return built;
  }

  PlanCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {hits_, misses_, order_.size()};
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    order_.clear();
    index_.clear();
    hits_ = misses_ = 0;
  }

 private:
  using Entry = std::pair<Key, std::shared_ptr<const Value>>;

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> order_;  ///< front = most recently used
  std::map<Key, typename std::list<Entry>::iterator> index_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

LruCache<std::size_t, FftPlan>& plan_cache() {
  static LruCache<std::size_t, FftPlan> cache(16);
  return cache;
}

LruCache<std::pair<std::size_t, bool>, BluesteinPlan>& bluestein_plan_cache() {
  static LruCache<std::pair<std::size_t, bool>, BluesteinPlan> cache(16);
  return cache;
}

LruCache<std::size_t, RfftPlan>& rfft_plan_cache() {
  static LruCache<std::size_t, RfftPlan> cache(16);
  return cache;
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_power_of_two(n))
    throw std::invalid_argument("FftPlan: size must be a power of two");

  bitrev_.resize(n);
  bitrev_[0] = 0;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = static_cast<std::uint32_t>(j);
  }

  // Per-stage twiddle tables, concatenated smallest stage first: the
  // stage with span len owns entries [len/2 - 1, len - 1). Each w_len^k
  // comes straight from cos/sin instead of the incremental w *= wlen
  // recurrence, which accumulates O(len) rounding error by the end of a
  // stage.
  if (n >= 2) stages_.resize(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double ang = -2.0 * M_PI / static_cast<double>(len);
    cd* table = stages_.data() + (half - 1);
    for (std::size_t k = 0; k < half; ++k) {
      const double a = ang * static_cast<double>(k);
      table[k] = cd(std::cos(a), std::sin(a));
    }
  }
}

std::span<const cd> FftPlan::stage_twiddles(std::size_t len) const {
  if (len < 2 || len > n_ || !is_power_of_two(len))
    throw std::invalid_argument("FftPlan::stage_twiddles: bad stage");
  const std::size_t half = len / 2;
  return {stages_.data() + (half - 1), half};
}

void FftPlan::transform(std::span<cd> data, bool inverse) const {
  if (data.size() != n_)
    throw std::invalid_argument("FftPlan: data size does not match plan");
  if (n_ == 1) return;

  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }

  const std::size_t n_butterflies = n_ / 2;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    const cd* tw = stages_.data() + (half - 1);

    // One stage = n/2 independent butterflies; butterfly b lives in
    // block b / half at offset b % half and touches only its own two
    // slots, so any chunking computes bit-identical results. The
    // arithmetic runs on the parts (see forward()): std::complex
    // temporaries cost a store-forwarding stall per butterfly. The
    // standard lays a std::complex<double> array out as interleaved
    // doubles, which is what makes `d` valid.
    double* d = reinterpret_cast<double*>(data.data());
    auto run = [&](std::size_t b, std::size_t e) {
      std::size_t block = b / half;
      std::size_t k = b - block * half;
      std::size_t base = block * len;
      for (std::size_t idx = b; idx < e; ++idx) {
        const double wr = tw[k].real();
        const double wi = inverse ? -tw[k].imag() : tw[k].imag();
        double* lo = d + 2 * (base + k);
        double* hi = d + 2 * (base + k + half);
        const double yr = hi[0];
        const double yi = hi[1];
        const double vr = yr * wr - yi * wi;
        const double vi = yr * wi + yi * wr;
        const double ur = lo[0];
        const double ui = lo[1];
        lo[0] = ur + vr;
        lo[1] = ui + vi;
        hi[0] = ur - vr;
        hi[1] = ui - vi;
        if (++k == half) {
          k = 0;
          base += len;
        }
      }
    };

    if (n_butterflies <= kButterflyGrain) {
      run(0, n_butterflies);  // single chunk: skip scheduling entirely
    } else {
      par::parallel_for(0, n_butterflies, kButterflyGrain, run);
    }
  }
}

std::shared_ptr<const FftPlan> plan_for(std::size_t n) {
  if (!is_power_of_two(n))
    throw std::invalid_argument("plan_for: size must be a power of two");
  return plan_cache().get_or_create(
      n, [n] { return std::make_shared<const FftPlan>(n); });
}

BluesteinPlan::BluesteinPlan(std::size_t n, bool inverse) : n_(n) {
  if (n == 0)
    throw std::invalid_argument("BluesteinPlan: size must be at least 1");
  const std::size_t m = next_power_of_two(2 * n + 1);
  const double sign = inverse ? 1.0 : -1.0;
  inner_ = plan_for(m);

  // Chirp w[k] = exp(sign * i * pi * k^2 / n).
  chirp_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // k^2 mod 2n avoids precision loss for large k.
    const std::size_t k2 = (k * k) % (2 * n);
    const double ang = sign * M_PI * static_cast<double>(k2) /
                       static_cast<double>(n);
    chirp_[k] = cd(std::cos(ang), std::sin(ang));
  }

  // The convolution kernel conj(w), wrapped around to m points.
  kernel_.assign(m, cd(0.0, 0.0));
  kernel_[0] = std::conj(chirp_[0]);
  for (std::size_t k = 1; k < n; ++k) {
    kernel_[k] = std::conj(chirp_[k]);
    kernel_[m - k] = std::conj(chirp_[k]);
  }
  inner_->forward(kernel_);
}

std::vector<cd> BluesteinPlan::transform(std::span<const cd> data) const {
  if (data.size() != n_)
    throw std::invalid_argument(
        "BluesteinPlan: data size does not match plan");
  const std::size_t m = inner_->size();
  std::vector<cd> a(m, cd(0.0, 0.0));
  for (std::size_t k = 0; k < n_; ++k) a[k] = data[k] * chirp_[k];
  inner_->forward(a);
  for (std::size_t k = 0; k < m; ++k) a[k] *= kernel_[k];
  inner_->inverse(a);
  const double inv_m = 1.0 / static_cast<double>(m);

  std::vector<cd> out(n_);
  for (std::size_t k = 0; k < n_; ++k) out[k] = a[k] * inv_m * chirp_[k];
  return out;
}

std::shared_ptr<const BluesteinPlan> bluestein_plan_for(std::size_t n,
                                                        bool inverse) {
  return bluestein_plan_cache().get_or_create({n, inverse}, [n, inverse] {
    return std::make_shared<const BluesteinPlan>(n, inverse);
  });
}

RfftPlan::RfftPlan(std::size_t n) : n_(n), h_(n / 2) {
  if (n < 2 || n % 2 != 0)
    throw std::invalid_argument("RfftPlan: size must be even and >= 2");
  if (is_power_of_two(h_)) {
    half_plan_ = plan_for(h_);
  } else {
    half_forward_ = bluestein_plan_for(h_, false);
    half_inverse_ = bluestein_plan_for(h_, true);
  }

  unpack_.resize(h_ + 1);
  const double ang = -2.0 * M_PI / static_cast<double>(n_);
  for (std::size_t k = 0; k <= h_; ++k) {
    const double a = ang * static_cast<double>(k);
    unpack_[k] = cd(std::cos(a), std::sin(a));
  }
  // Exact endpoints (sin(-pi) is only ~1e-16 in floating point) keep
  // the DC and Nyquist bins purely real.
  unpack_[0] = cd(1.0, 0.0);
  unpack_[h_] = cd(-1.0, 0.0);
}

std::vector<cd> RfftPlan::forward(std::span<const double> x,
                                  double subtract) const {
  if (x.size() != n_)
    throw std::invalid_argument("RfftPlan: data size does not match plan");

  // Pack pairs of (centered) reals into h complex points. The packing
  // buffer doubles as the transform workspace, so no widened copy of
  // the full series is ever made.
  std::vector<cd> z(h_);
  auto pack = [&](std::size_t b, std::size_t e) {
    for (std::size_t t = b; t < e; ++t)
      z[t] = cd(x[2 * t] - subtract, x[2 * t + 1] - subtract);
  };
  if (h_ <= kButterflyGrain) {
    pack(0, h_);
  } else {
    par::parallel_for(0, h_, kButterflyGrain, pack);
  }

  if (half_plan_) {
    half_plan_->forward(z);
  } else {
    z = half_forward_->transform(z);
  }

  // Split Z into the spectra of the even and odd subsequences and
  // recombine: X[k] = Xe[k] + w_n^k Xo[k], k = 0..h, with
  // Xe[k] = (Z[k] + conj(Z[h-k]))/2 and Xo[k] = -i (Z[k] - conj(Z[h-k]))/2.
  // Like the butterfly, this runs on the parts, each product and sum
  // the one std::complex forms for finite values, in the same order.
  std::vector<cd> out(h_ + 1);
  const double* zp = reinterpret_cast<const double*>(z.data());
  double* op = reinterpret_cast<double*>(out.data());
  auto unpack = [&](std::size_t b, std::size_t e) {
    for (std::size_t k = b; k < e; ++k) {
      const double* zk = zp + 2 * (k == h_ ? 0 : k);
      const double* zh = zp + 2 * (k == 0 ? 0 : h_ - k);
      const double cr = zh[0];
      const double ci = -zh[1];  // conj(Z[h-k])
      const double even_r = 0.5 * (zk[0] + cr);
      const double even_i = 0.5 * (zk[1] + ci);
      const double dr = zk[0] - cr;
      const double di = zk[1] - ci;
      const double odd_r = 0.0 * dr - (-0.5) * di;  // (0 - 0.5i)(dr + i di)
      const double odd_i = 0.0 * di + (-0.5) * dr;
      const double wr = unpack_[k].real();
      const double wi = unpack_[k].imag();
      op[2 * k] = even_r + (wr * odd_r - wi * odd_i);
      op[2 * k + 1] = even_i + (wr * odd_i + wi * odd_r);
    }
  };
  if (h_ + 1 <= kButterflyGrain) {
    unpack(0, h_ + 1);
  } else {
    par::parallel_for(0, h_ + 1, kButterflyGrain, unpack);
  }
  return out;
}

std::vector<double> RfftPlan::inverse(std::span<const cd> half_spectrum) const {
  if (half_spectrum.size() != h_ + 1)
    throw std::invalid_argument(
        "RfftPlan: half spectrum must hold n/2 + 1 entries");

  // Reassemble the packed spectrum: Z[k] = Xe[k] + i Xo[k], with
  // Xe[k] = (X[k] + conj(X[h-k]))/2 and w_n^k Xo[k] = (X[k] -
  // conj(X[h-k]))/2; on the parts, as the forward unpack.
  std::vector<cd> z(h_);
  double* zp = reinterpret_cast<double*>(z.data());
  auto repack = [&](std::size_t b, std::size_t e) {
    for (std::size_t k = b; k < e; ++k) {
      const double xr = half_spectrum[k].real();
      const double xi = half_spectrum[k].imag();
      const double cr = half_spectrum[h_ - k].real();
      const double ci = -half_spectrum[h_ - k].imag();  // conj(X[h-k])
      const double even_r = 0.5 * (xr + cr);
      const double even_i = 0.5 * (xi + ci);
      const double tr = 0.5 * (xr - cr);
      const double ti = 0.5 * (xi - ci);
      const double wr = unpack_[k].real();
      const double wi = -unpack_[k].imag();  // conj(w_n^k)
      const double odd_r = tr * wr - ti * wi;
      const double odd_i = tr * wi + ti * wr;
      zp[2 * k] = even_r - odd_i;  // even + i*odd
      zp[2 * k + 1] = even_i + odd_r;
    }
  };
  if (h_ <= kButterflyGrain) {
    repack(0, h_);
  } else {
    par::parallel_for(0, h_, kButterflyGrain, repack);
  }

  if (half_plan_) {
    half_plan_->inverse(z);
  } else {
    z = half_inverse_->transform(z);
  }
  const double inv_h = 1.0 / static_cast<double>(h_);
  for (cd& v : z) v *= inv_h;

  std::vector<double> out(n_);
  for (std::size_t t = 0; t < h_; ++t) {
    out[2 * t] = z[t].real();
    out[2 * t + 1] = z[t].imag();
  }
  return out;
}

std::shared_ptr<const RfftPlan> rfft_plan_for(std::size_t n) {
  if (n < 2 || n % 2 != 0)
    throw std::invalid_argument("rfft_plan_for: size must be even and >= 2");
  return rfft_plan_cache().get_or_create(
      n, [n] { return std::make_shared<const RfftPlan>(n); });
}

PlanCacheStats plan_cache_stats() { return plan_cache().stats(); }

PlanCacheStats bluestein_plan_cache_stats() {
  return bluestein_plan_cache().stats();
}

PlanCacheStats rfft_plan_cache_stats() { return rfft_plan_cache().stats(); }

void reset_plan_caches() {
  plan_cache().clear();
  bluestein_plan_cache().clear();
  rfft_plan_cache().clear();
}

}  // namespace wan::fft
