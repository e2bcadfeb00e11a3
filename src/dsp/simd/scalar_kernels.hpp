#pragma once

/// @file scalar_kernels.hpp
/// Internal: the scalar reference of every simd.hpp kernel, under
/// `simd::scalar`, and the Gaussian stream's building blocks under
/// `simd::detail` (the libm replicas' are in libm.hpp). The dispatcher
/// runs these bodies when no vector unit runs, the AVX2 unit reuses them
/// for tails and short inputs, and the equivalence suite
/// (`test_dsp_simd`) compares every dispatched kernel with them. Each
/// body is the bit-exact contract its vector version must match — see
/// simd.hpp for the accumulation-order rules.
///
/// Everything here has internal linkage (the unnamed namespaces): each
/// unit that includes this header compiles its own copy, and no copy can
/// stand in for another unit's. The AVX2 unit includes it before its
/// `#pragma GCC target("avx2")`, so even its copies are baseline code,
/// except where an avx2:: body inlines them.

#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/contracts.hpp"
#include "dsp/simd/libm.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/types.hpp"

// ------------------------------------------------ Gaussian noise stream
//
// MT19937-64 (n = 312, m = 156, r = 31) as the C++ standard specifies it,
// and the polar method as libstdc++'s normal_distribution<float> runs it.

namespace bhss::dsp::simd::detail {
namespace {

constexpr std::size_t kMtShift = 156;
constexpr std::uint64_t kMtMatrix = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kMtUpper = 0xFFFFFFFF80000000ULL;  ///< top 33 bits
constexpr std::uint64_t kMtLower = 0x7FFFFFFFULL;          ///< low 31 bits

/// One twist step: the new word k from the old words k and k+1 and the
/// word m places on (`far`).
inline std::uint64_t mt_twist_word(std::uint64_t cur, std::uint64_t nxt, std::uint64_t far) {
  const std::uint64_t y = (cur & kMtUpper) | (nxt & kMtLower);
  return far ^ (y >> 1) ^ ((y & 1U) != 0 ? kMtMatrix : 0U);
}

/// Finish a twist in place from word `from` on (0 = the whole twist), in
/// the standard's order: words below n - m take their far word from the
/// old state, the rest from words already twisted.
inline void mt_twist(std::array<std::uint64_t, Mt19937_64::kWords>& w, std::size_t from) {
  constexpr std::size_t n = Mt19937_64::kWords;
  for (std::size_t k = from; k + 1 < n; ++k) {
    w[k] = mt_twist_word(w[k], w[k + 1], k < n - kMtShift ? w[k + kMtShift] : w[k + kMtShift - n]);
  }
  w[n - 1] = mt_twist_word(w[n - 1], w[0], w[kMtShift - 1]);
}

inline std::uint64_t mt_temper(std::uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ULL;
  z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
  z ^= (z << 37) & 0xFFF7EEE000000000ULL;
  return z ^ (z >> 43);
}

inline std::uint64_t mt_next(Mt19937_64& eng) {
  if (eng.next == Mt19937_64::kWords) {
    mt_twist(eng.words, 0);
    eng.next = 0;
  }
  return mt_temper(eng.words[eng.next++]);
}

/// std::generate_canonical<float, 24> over one 64-bit output: one term,
/// float(u) correctly rounded, scaled by 2^-64 (exact), and a result that
/// rounded up to 1 clamped to the largest float below 1.
inline float canonical_float(std::uint64_t u) {
  const float c = static_cast<float>(u) * 0x1p-64F;
  return c >= 1.0F ? 0x1.fffffep-1F : c;
}

/// One polar coordinate, `float(2) * c - 1.0` with the subtraction in double.
inline float polar_coordinate(std::uint64_t u) {
  return static_cast<float>(static_cast<double>(2.0F * canonical_float(u)) - 1.0);
}

inline bool polar_rejects(float r2) { return r2 > 1.0F || r2 == 0.0F; }

/// The sample an accepted attempt yields; `+ 0.0F` is `* stddev + mean`
/// with (1, 0), which maps -0 to +0.
inline cf polar_sample(float x, float y, float r2) {
  const float mult = std::sqrt(-2.0F * detail::log(r2) / r2);
  return cf{y * mult + 0.0F, x * mult + 0.0F};
}

}  // namespace
}  // namespace bhss::dsp::simd::detail

// ------------------------------------------------ reference kernels

namespace bhss::dsp::simd::scalar {
namespace {

inline void fir_decimate_real(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                              std::size_t n_out, std::size_t stride) {
  BHSS_REQUIRE(taps != nullptr && x != nullptr && out != nullptr,
               "fir_decimate_real: null buffer");
  for (std::size_t m = 0; m < n_out; ++m) {
    const cf* base = x + m * stride + n_taps - 1;
    cf acc{0.0F, 0.0F};
    for (std::size_t k = 0; k < n_taps; ++k) {
      const cf v = *(base - static_cast<std::ptrdiff_t>(k));
      acc += cf{taps[k] * v.real(), taps[k] * v.imag()};
    }
    out[m] = acc;
  }
}

inline void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out,
                           std::size_t n_lags) {
  BHSS_REQUIRE(x != nullptr && ref != nullptr && out != nullptr, "correlate_lags: null buffer");
  for (std::size_t l = 0; l < n_lags; ++l) {
    cf acc{0.0F, 0.0F};
    for (std::size_t k = 0; k < n_ref; ++k) acc += x[l + k] * std::conj(ref[k]);
    out[l] = acc;
  }
}

inline void despread_correlate16(const cf* pairs, std::size_t n_pairs, const float* se,
                                 const float* so, const float* cols, cf* out) {
  BHSS_REQUIRE(pairs != nullptr && se != nullptr && so != nullptr && cols != nullptr &&
                   out != nullptr,
               "despread_correlate16: null buffer");
  constexpr std::size_t kSymbols = 16;
  for (std::size_t s = 0; s < kSymbols; ++s) out[s] = cf{0.0F, 0.0F};
  for (std::size_t m = 0; m < n_pairs; ++m) {
    const cf p = pairs[m];
    const float sem = se[m];
    const float nso = -so[m];
    const float* even = cols + (2 * m) * kSymbols;
    const float* odd = cols + (2 * m + 1) * kSymbols;
    for (std::size_t s = 0; s < kSymbols; ++s) {
      const cf ref{sem * even[s], nso * odd[s]};
      out[s] += p * ref;
    }
  }
}

/// Stage half h = 1, 2, 4, ..., n/2 in order, its blocks in address order,
/// and within a block for k in [0, h)
///   w = (tw[s][2k], tw[s][2h + 2k]) with h = 2^s, conjugated if inverse;
///   t = w * b[k];  a[k] = a[k] + t;  b[k] = a[k]_old - t
/// with a = the block's first half and b its second.
inline void fft_stages(cf* x, std::size_t n, const float* const* tw, bool inverse) {
  BHSS_REQUIRE(x != nullptr && tw != nullptr, "fft_stages: null buffer");
  std::size_t s = 0;
  for (std::size_t half = 1; half < n; half <<= 1, ++s) {
    const float* re = tw[s];
    const float* im = tw[s] + 2 * half;
    for (std::size_t start = 0; start < n; start += 2 * half) {
      cf* a = x + start;
      cf* b = a + half;
      for (std::size_t k = 0; k < half; ++k) {
        cf w{re[2 * k], im[2 * k]};
        if (inverse) w = std::conj(w);
        const cf u = a[k];
        const cf t = w * b[k];
        a[k] = u + t;
        b[k] = u - t;
      }
    }
  }
}

/// The low `bits` bits of a in reverse order.
inline std::size_t reverse_bits(std::size_t a, int bits) {
  std::size_t r = 0;
  for (int b = 0; b < bits; ++b, a >>= 1) r = (r << 1) | (a & 1U);
  return r;
}

/// The bit-reversal permutation of n (a power of two) samples in place:
/// x[i] and x[rev(i)] trade places. From n = 64 on the swaps go in 8 x 8
/// tiles: the index bits split into high, middle and low fields, the
/// outer two 3 bits wide, and for one middle value the low field walks 8
/// contiguous samples under each of 8 high values, whose partners (low
/// and high fields reversed and exchanged) are again 8 runs of 8. In
/// ascending order the partners of neighbouring samples lie n/2 apart
/// and, once the buffer outgrows L1, keep evicting each other.
inline void bit_reverse(cf* x, std::size_t n) {
  BHSS_REQUIRE(x != nullptr, "bit_reverse: null buffer");
  constexpr std::array<std::size_t, 8> kRev3 = {0, 4, 2, 6, 1, 5, 3, 7};
  const int bits = std::countr_zero(n);
  if (bits < 6) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = reverse_bits(i, bits);
      if (i < r) std::swap(x[i], x[r]);
    }
    return;
  }
  const int top = bits - 3;
  for (std::size_t mid = 0; mid < (n >> 6); ++mid) {
    const std::size_t mid_rev = reverse_bits(mid, bits - 6) << 3;
    for (std::size_t hi = 0; hi < 8; ++hi) {
      for (std::size_t lo = 0; lo < 8; ++lo) {
        const std::size_t i = (hi << top) | (mid << 3) | lo;
        const std::size_t r = (kRev3[lo] << top) | mid_rev | kRev3[hi];
        if (i < r) std::swap(x[i], x[r]);
      }
    }
  }
}

inline void cmul_inplace(cf* a, const cf* b, std::size_t n) {
  BHSS_REQUIRE(a != nullptr && b != nullptr, "cmul_inplace: null buffer");
  for (std::size_t i = 0; i < n; ++i) a[i] *= b[i];
}

inline void fft(cf* x, std::size_t n, const float* const* tw, bool inverse) {
  bit_reverse(x, n);
  fft_stages(x, n, tw, inverse);
}

inline void scale_inplace(cf* x, float s, std::size_t n) {
  BHSS_REQUIRE(x != nullptr, "scale_inplace: null buffer");
  for (std::size_t i = 0; i < n; ++i) x[i] *= s;
}

inline void window_apply(const cf* x, const float* w, cf* out, std::size_t n) {
  BHSS_REQUIRE(x != nullptr && w != nullptr && out != nullptr, "window_apply: null buffer");
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * w[i];
}

inline void scale_pulse(float a, float b, const float* pulse, cf* out, std::size_t n) {
  BHSS_REQUIRE(pulse != nullptr && out != nullptr, "scale_pulse: null buffer");
  for (std::size_t k = 0; k < n; ++k) out[k] = cf{a * pulse[k], b * pulse[k]};
}

inline void gaussian_cf(Mt19937_64& eng, cf* out, std::size_t n) {
  BHSS_REQUIRE(out != nullptr || n == 0, "gaussian_cf: null buffer");
  for (std::size_t i = 0; i < n; ++i) {
    float x = 0.0F;
    float y = 0.0F;
    float r2 = 0.0F;
    do {
      x = detail::polar_coordinate(detail::mt_next(eng));
      y = detail::polar_coordinate(detail::mt_next(eng));
      r2 = x * x + y * y;
    } while (detail::polar_rejects(r2));
    out[i] = detail::polar_sample(x, y, r2);
  }
}

inline void sincos_f32(const float* x, cf* out, std::size_t n) {
  BHSS_REQUIRE(x != nullptr && out != nullptr, "sincos_f32: null buffer");
  for (std::size_t i = 0; i < n; ++i) out[i] = detail::sincos(x[i]);
}

inline void log_f32(const float* x, float* out, std::size_t n) {
  BHSS_REQUIRE(x != nullptr && out != nullptr, "log_f32: null buffer");
  for (std::size_t i = 0; i < n; ++i) out[i] = detail::log(x[i]);
}

}  // namespace
}  // namespace bhss::dsp::simd::scalar
