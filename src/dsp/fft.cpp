#include "dsp/fft.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <mutex>
#include <numbers>

#include "core/contracts.hpp"
#include "dsp/simd/simd.hpp"

namespace bhss::dsp {
namespace {

constexpr std::size_t kMaxStages = std::numeric_limits<std::size_t>::digits;

/// The twiddle tables of every stage any transform has needed so far.
/// `stage[s]` is written once, under the mutex, before any Fft that reads
/// it exists, and never changes; `owned` keeps the tables for the life of
/// the process.
struct StageTables {
  std::mutex mutex;
  std::array<fvec, kMaxStages> owned;
  std::array<const float*, kMaxStages> stage{};
};

/// Stage s (half h = 2^s) in the simd::fft layout: the real parts of
/// exp(-j 2 pi k / 2h), k in [0, h), each twice, then the imaginary parts
/// each twice. The angle is the one the n-point grid gives,
/// -2 pi (k n/2h) / n: both scale -2 pi k by a power of two, so the value
/// does not depend on n.
fvec build_stage(std::size_t half) {
  fvec table(4 * half);
  for (std::size_t k = 0; k < half; ++k) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(2 * half);
    const auto re = static_cast<float>(std::cos(angle));
    const auto im = static_cast<float>(std::sin(angle));
    table[2 * k] = re;
    table[2 * k + 1] = re;
    table[2 * half + 2 * k] = im;
    table[2 * half + 2 * k + 1] = im;
  }
  return table;
}

/// The stage tables of an n-point transform, built where missing.
const float* const* stage_tables(std::size_t n) {
  static StageTables tables;
  const std::scoped_lock lock(tables.mutex);
  std::size_t s = 0;
  for (std::size_t half = 1; half < n; half <<= 1, ++s) {
    if (tables.stage[s] != nullptr) continue;
    tables.owned[s] = build_stage(half);
    tables.stage[s] = tables.owned[s].data();
  }
  return tables.stage.data();
}

}  // namespace

bool Fft::valid_size(std::size_t n) noexcept {
  return n >= 2 && n <= kMaxSize && (n & (n - 1)) == 0;
}

Fft::Fft(std::size_t n) : n_(n), twiddles_(nullptr) {
  BHSS_REQUIRE(valid_size(n), "Fft: size must be a power of two in [2, kMaxSize]");
  twiddles_ = stage_tables(n);
}

void Fft::forward(cspan_mut x) const {
  BHSS_REQUIRE(x.size() == n_, "Fft: buffer length must equal the transform size");
  simd::fft(x.data(), n_, twiddles_, false);
}

void Fft::inverse(cspan_mut x) const {
  BHSS_REQUIRE(x.size() == n_, "Fft: buffer length must equal the transform size");
  simd::fft(x.data(), n_, twiddles_, true);
  simd::scale_inplace(x.data(), 1.0F / static_cast<float>(n_), n_);
}

cvec Fft::forward_copy(cspan x) const {
  BHSS_REQUIRE(x.size() <= n_, "Fft::forward_copy: input longer than the transform size");
  cvec out(x.begin(), x.end());
  out.resize(n_, cf{0.0F, 0.0F});
  forward(cspan_mut{out});
  return out;
}

fvec fft_shift(fspan x) {
  fvec out(x.size());
  const std::size_t half = x.size() / 2;
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[(i + half) % x.size()];
  return out;
}

}  // namespace bhss::dsp
