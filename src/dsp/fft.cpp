#include "dsp/fft.hpp"

#include <cmath>
#include <mutex>
#include <numbers>
#include <unordered_map>

#include "core/contracts.hpp"
#include "dsp/simd/simd.hpp"

namespace bhss::dsp {

/// Immutable per-size tables. Built once per size, shared by every Fft of
/// that size (across threads: the tables are read-only after publication).
struct FftPlan {
  std::vector<std::size_t> bitrev;
  cvec twiddles;  ///< exp(-j 2 pi k / n), k in [0, n/2)
  /// Per-stage contiguous twiddle runs: stage_twiddles[s][k] ==
  /// twiddles[k * step] for stage len = 2^(s+1), step = n/len. Same values
  /// (bit-for-bit copies), laid out so the butterfly kernel streams them
  /// with unit stride instead of the strided twiddles[k*step] walk.
  std::vector<cvec> stage_twiddles;
};

namespace {

std::shared_ptr<const FftPlan> build_plan(std::size_t n) {
  auto plan = std::make_shared<FftPlan>();

  // Bit-reversal permutation table.
  plan->bitrev.resize(n);
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (bits - 1 - b);
    }
    plan->bitrev[i] = r;
  }

  // Twiddle factors for the forward transform.
  plan->twiddles.resize(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
    plan->twiddles[k] = cf(static_cast<float>(std::cos(angle)), static_cast<float>(std::sin(angle)));
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = n / len;
    cvec stage(half);
    for (std::size_t k = 0; k < half; ++k) stage[k] = plan->twiddles[k * step];
    plan->stage_twiddles.push_back(std::move(stage));
  }
  return plan;
}

/// Process-wide plan cache. Guarded by a mutex: lookups happen once per
/// Fft construction (per hop at worst), never per sample.
std::shared_ptr<const FftPlan> plan_for(std::size_t n) {
  static std::mutex mutex;
  static std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>> cache;
  const std::scoped_lock lock(mutex);
  auto& slot = cache[n];
  if (!slot) slot = build_plan(n);
  return slot;
}

}  // namespace

bool Fft::valid_size(std::size_t n) noexcept {
  return n >= 2 && (n & (n - 1)) == 0;
}

Fft::Fft(std::size_t n) : n_(n) {
  BHSS_REQUIRE(valid_size(n), "Fft: size must be a power of two >= 2");
  plan_ = plan_for(n);
}

void Fft::transform(cspan_mut x, bool inverse) const {
  BHSS_REQUIRE(x.size() == n_, "Fft: buffer length must equal the transform size");
  const std::vector<std::size_t>& bitrev = plan_->bitrev;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n_; len <<= 1, ++stage) {
    const std::size_t half = len / 2;
    const cf* tw = plan_->stage_twiddles[stage].data();
    for (std::size_t start = 0; start < n_; start += len) {
      simd::fft_butterflies(x.data() + start, x.data() + start + half, tw, half, inverse);
    }
  }
  if (inverse) {
    const float inv_n = 1.0F / static_cast<float>(n_);
    simd::scale_inplace(x.data(), inv_n, n_);
  }
}

void Fft::forward(cspan_mut x) const { transform(x, false); }

void Fft::inverse(cspan_mut x) const { transform(x, true); }

cvec Fft::forward_copy(cspan x) const {
  BHSS_REQUIRE(x.size() <= n_, "Fft::forward_copy: input longer than the transform size");
  cvec out(x.begin(), x.end());
  out.resize(n_, cf{0.0F, 0.0F});
  forward(cspan_mut{out});
  return out;
}

void Fft::forward_into(cspan x, cspan_mut out) const {
  BHSS_REQUIRE(x.size() <= n_, "Fft::forward_into: input longer than the transform size");
  BHSS_REQUIRE(out.size() == n_, "Fft::forward_into: output length must equal the transform size");
  std::size_t i = 0;
  for (; i < x.size(); ++i) out[i] = x[i];
  for (; i < n_; ++i) out[i] = cf{0.0F, 0.0F};
  forward(out);
}

fvec fft_shift(fspan x) {
  fvec out(x.size());
  const std::size_t half = x.size() / 2;
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[(i + half) % x.size()];
  return out;
}

}  // namespace bhss::dsp
