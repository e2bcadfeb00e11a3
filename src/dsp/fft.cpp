#include "dsp/fft.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numbers>
#include <unordered_map>

#include "core/contracts.hpp"
#include "dsp/simd/simd.hpp"

namespace bhss::dsp {

/// Immutable per-size tables. Built once per size, shared by every Fft of
/// that size (across threads: the tables are read-only after publication).
struct FftPlan {
  /// The bit-reversal permutation as its swaps (i, j), i < j, so applying
  /// it takes no per-point compare. The swaps are disjoint, so their order
  /// does not change the result; build_plan orders them for the cache.
  std::vector<std::array<std::uint32_t, 2>> swaps;
  /// Every stage's twiddles, one run per stage (simd::fft_stages layout):
  /// stage half h at offset h - 1, twiddles[h - 1 + k] = exp(-j 2 pi k
  /// step / n) with step = n / 2h, each value computed from its angle on
  /// the n-point grid.
  cvec twiddles;
};

namespace {

std::size_t reverse_bits(std::size_t i, std::size_t bits) {
  std::size_t r = 0;
  for (std::size_t b = 0; b < bits; ++b) {
    if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (bits - 1 - b);
  }
  return r;
}

std::shared_ptr<const FftPlan> build_plan(std::size_t n) {
  auto plan = std::make_shared<FftPlan>();

  // Swaps in tiles: the index bits split into high, middle and low fields,
  // the outer two kTile bits wide. For one middle value the low field walks
  // 8 contiguous samples under each of 8 high values, and their partners
  // (low and high fields reversed and exchanged) are again 8 runs of 8
  // contiguous samples: 16 cache lines per tile. In ascending order the
  // partners of neighbouring samples lie n/2 apart and, once the buffer
  // outgrows L1, keep evicting each other.
  constexpr std::size_t kTile = 3;
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  const std::size_t edge = bits >= 2 * kTile ? kTile : 0;
  plan->swaps.reserve(n / 2);
  for (std::size_t mid = 0; mid < (n >> (2 * edge)); ++mid) {
    for (std::size_t hi = 0; hi < (std::size_t{1} << edge); ++hi) {
      for (std::size_t lo = 0; lo < (std::size_t{1} << edge); ++lo) {
        const std::size_t i = (hi << (bits - edge)) | (mid << edge) | lo;
        const std::size_t r = reverse_bits(i, bits);
        if (i < r) {
          plan->swaps.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(r)});
        }
      }
    }
  }

  plan->twiddles.resize(n - 1);
  for (std::size_t half = 1; half < n; half <<= 1) {
    const std::size_t step = n / (2 * half);
    for (std::size_t k = 0; k < half; ++k) {
      const double angle =
          -2.0 * std::numbers::pi * static_cast<double>(k * step) / static_cast<double>(n);
      plan->twiddles[half - 1 + k] =
          cf(static_cast<float>(std::cos(angle)), static_cast<float>(std::sin(angle)));
    }
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
  BHSS_REQUIRE(n - 1 <= std::numeric_limits<std::uint32_t>::max(),
               "Fft: size must fit the plan's 32-bit swap indices");
  plan_ = plan_for(n);
}

void Fft::transform(cspan_mut x, bool inverse) const {
  BHSS_REQUIRE(x.size() == n_, "Fft: buffer length must equal the transform size");
  for (const auto& [i, j] : plan_->swaps) std::swap(x[i], x[j]);
  simd::fft_stages(x.data(), n_, plan_->twiddles.data(), inverse);
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
