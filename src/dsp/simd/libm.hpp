#pragma once

/// @file libm.hpp
/// In-tree replicas of glibc 2.36's sinf/cosf (the build with fused
/// multiply-add that glibc picks on any CPU with FMA), logf and cabsf,
/// bit for bit on every finite input: `simd::sincos` and `simd::abs` for
/// one value, inline so that a sequential loop (the Costas NCO) pays no
/// call, and the bodies under `simd::detail` that the reference kernels
/// `scalar::sincos_f32` / `scalar::log_f32` and the AVX2 lanes follow.
/// Like scalar_kernels.hpp, everything with a body that another unit's
/// copy could replace has internal linkage (the unnamed namespaces).
///
/// The constants are glibc's __sincosf_table[0], __inv_pio4 and
/// __logf_data, read from libm-2.36.a (objdump -s -j .rodata of the
/// s_sincosf_data.o and e_logf_data.o members). Every step is exact
/// integer work or one correctly rounded double operation, so an FMA
/// anywhere in the polynomials would change no output; only the range
/// reduction needs care (see sincos_reduce).

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "dsp/types.hpp"

namespace bhss::dsp::simd::detail {
namespace {

constexpr double kHalfPiInv = 0x1.45f306dc9c883p+23;  ///< 2/pi * 2^24
/// pi/2 as glibc rounds it to double, split into its top 46 bits and the
/// two-bit rest: n * kHalfPiHi and n * kHalfPiLo are exact for |n| < 128.
constexpr double kHalfPiHi = 0x1.921fb54442d00p+0;
constexpr double kHalfPiLo = 0x1.921fb54442d18p+0 - kHalfPiHi;
static_assert(kHalfPiLo == 0x1.8p-48);
constexpr double kPi63 = 0x1.921fb54442d18p-62;  ///< 2pi * 2^-64

// Cosine (c0..c4) and sine (s1..s3) polynomials in the reduced argument.
constexpr double kC0 = 0x1p0;
constexpr double kC1 = -0x1.ffffffd0c621cp-2;
constexpr double kC2 = 0x1.55553e1068f19p-5;
constexpr double kC3 = -0x1.6c087e89a359dp-10;
constexpr double kC4 = 0x1.99343027bf8c3p-16;
constexpr double kS1 = -0x1.555545995a603p-3;
constexpr double kS2 = 0x1.1107605230bc4p-7;
constexpr double kS3 = -0x1.994eb3774cf24p-13;

/// 4/pi to 192 bits, for the reduction of |x| >= 120.
constexpr std::array<std::uint32_t, 24> kInvPio4 = {
    0xa2,       0xa2f9,     0xa2f983,   0xa2f9836e, 0xf9836e4e, 0x836e4e44,
    0x6e4e4415, 0x4e441529, 0x441529fc, 0x1529fc27, 0x29fc2757, 0xfc2757d1,
    0x2757d1f5, 0x57d1f534, 0xd1f534dd, 0xf534ddc0, 0x34ddc0db, 0xddc0db62,
    0xc0db6295, 0xdb629599, 0x6295993c, 0x95993c43, 0x993c4390, 0x3c439041};

// Thresholds on the float's bits with the sign cleared. glibc compares
// the top 12 bits, and each of these has its low 20 bits clear.
constexpr std::uint32_t kTinyBits = 0x39800000;   ///< 2^-12
constexpr std::uint32_t kPio4Bits = 0x3f400000;   ///< 0.75, glibc's abstop12(pi/4)
constexpr std::uint32_t kLargeBits = 0x42f00000;  ///< 120
constexpr std::uint32_t kInfBits = 0x7f800000;

inline std::uint32_t abs_bits(float x) { return std::bit_cast<std::uint32_t>(x) & 0x7fffffffU; }

/// The quadrant n of |x| < 120 and r = x - n * pi/2. The FMA build
/// computes r in one fused operation, rounded once; the split rounds once
/// too: n * kHalfPiHi is exact, x - n * kHalfPiHi is exact (Sterbenz),
/// and n * kHalfPiLo is exact, so only the last subtraction rounds.
inline double sincos_reduce(double x, std::int32_t& n) {
  n = (static_cast<std::int32_t>(x * kHalfPiInv) + 0x800000) >> 24;
  const double nd = n;
  return (x - nd * kHalfPiHi) - nd * kHalfPiLo;
}

/// glibc's reduce_large for |x| >= 120: the exact 2.62-bit fixed-point
/// product of the mantissa with 4/pi, then its nearest quadrant.
inline double sincos_reduce_large(std::uint32_t xi, std::int32_t& n) {
  const std::uint32_t* arr = &kInvPio4[(xi >> 26) & 15];
  const std::uint32_t shift = (xi >> 23) & 7;
  xi = ((xi & 0xffffff) | 0x800000) << shift;
  std::uint64_t res0 = static_cast<std::uint32_t>(xi * arr[0]);
  const std::uint64_t res1 = static_cast<std::uint64_t>(xi) * arr[4];
  const std::uint64_t res2 = static_cast<std::uint64_t>(xi) * arr[8];
  res0 = (res2 >> 32) | (res0 << 32);
  res0 += res1;
  const std::uint64_t q = (res0 + (1ULL << 61)) >> 62;
  res0 -= q << 62;
  n = static_cast<std::int32_t>(q);
  return static_cast<double>(static_cast<std::int64_t>(res0)) * kPi63;
}

inline double sin_poly(double x, double x2) {
  const double x3 = x * x2;
  const double s1 = kS2 + x2 * kS3;
  const double x5 = x3 * x2;
  const double s = x + x3 * kS1;
  return s + x5 * s1;
}

inline double cos_poly(double x2) {
  const double x4 = x2 * x2;
  const double c2 = kC3 + x2 * kC4;
  const double c1 = kC0 + x2 * kC1;
  const double x6 = x4 * x2;
  const double c = c1 + x4 * kC2;
  return c + x6 * c2;
}

/// cf{cosf(y), sinf(y)}, glibc's branches: |y| < 2^-12 returns (1, y);
/// |y| < 0.75 needs no reduction; |y| < 120 reduces by sincos_reduce,
/// finite |y| >= 120 by sincos_reduce_large; a non-finite y gives NaN.
/// Quadrant n picks the sign of the reduced argument (sign[n & 3] =
/// +1, -1, -1, +1), negates the cosine polynomial when n & 2, and swaps
/// the two when n is odd.
inline cf sincos(float y) {
  const std::uint32_t top = abs_bits(y);
  if (top < kPio4Bits) {
    if (top < kTinyBits) return cf{1.0F, y};
    const double x = y;
    const double x2 = x * x;
    return cf{static_cast<float>(cos_poly(x2)), static_cast<float>(sin_poly(x, x2))};
  }
  if (top >= kInfBits) {
    const float nan = (y - y) / (y - y);
    return cf{nan, nan};
  }
  std::int32_t n = 0;
  std::int32_t q = 0;  // n plus the sign of y, which reduce_large drops
  double x = 0.0;
  if (top < kLargeBits) {
    x = sincos_reduce(y, n);
    q = n;
  } else {
    const auto xi = std::bit_cast<std::uint32_t>(y);
    x = sincos_reduce_large(xi, n);
    q = n + static_cast<std::int32_t>(xi >> 31);
  }
  const double xs = ((q + 1) & 2) != 0 ? -x : x;
  const double x2 = x * x;
  const double sp = sin_poly(xs, x2);
  const double cp = (q & 2) != 0 ? -cos_poly(x2) : cos_poly(x2);
  const bool odd = (n & 1) != 0;
  return cf{static_cast<float>(odd ? sp : cp), static_cast<float>(odd ? cp : sp)};
}

// logf: x = 2^k z with z in [0x3f330000, 2 * 0x3f330000) as bits, then
// log1p(z/c - 1) + log(c) + k ln2 for the table point c nearest z.
constexpr std::uint32_t kLogOff = 0x3f330000;
constexpr std::array<double, 16> kLogInvc = {
    0x1.661ec79f8f3bep+0, 0x1.571ed4aaf883dp+0, 0x1.49539f0f010bp+0,  0x1.3c995b0b80385p+0,
    0x1.30d190c8864a5p+0, 0x1.25e227b0b8eap+0,  0x1.1bb4a4a1a343fp+0, 0x1.12358f08ae5bap+0,
    0x1.0953f419900a7p+0, 0x1p+0,               0x1.e608cfd9a47acp-1, 0x1.ca4b31f026aap-1,
    0x1.b2036576afce6p-1, 0x1.9c2d163a1aa2dp-1, 0x1.886e6037841edp-1, 0x1.767dcf5534862p-1};
constexpr std::array<double, 16> kLogLogc = {
    -0x1.57bf7808caadep-2, -0x1.2bef0a7c06ddbp-2, -0x1.01eae7f513a67p-2, -0x1.b31d8a68224e9p-3,
    -0x1.6574f0ac07758p-3, -0x1.1aa2bc79c81p-3,   -0x1.a4e76ce8c0e5ep-4, -0x1.1973c5a611cccp-4,
    -0x1.252f438e10c1ep-5, 0x0p+0,                0x1.aa5aa5df25984p-5,  0x1.c5e53aa362eb4p-4,
    0x1.526e57720db08p-3,  0x1.bc2860d22477p-3,   0x1.1058bc8a07ee1p-2,  0x1.4043057b6ee09p-2};
constexpr double kLn2 = 0x1.62e42fefa39efp-1;
constexpr double kLogA0 = -0x1.00ea348b88334p-2;
constexpr double kLogA1 = 0x1.5575b0be00b6ap-2;
constexpr double kLogA2 = -0x1.ffffef20a4123p-2;

/// logf of a positive normal float's bits.
inline float log_normal(std::uint32_t ix) {
  const std::uint32_t tmp = ix - kLogOff;
  const std::uint32_t i = (tmp >> 19) & 15;
  const std::int32_t k = static_cast<std::int32_t>(tmp) >> 23;
  const std::uint32_t iz = ix - (tmp & 0xff800000U);
  const double z = std::bit_cast<float>(iz);
  const double r = z * kLogInvc[i] - 1.0;
  const double y0 = kLogLogc[i] + static_cast<double>(k) * kLn2;
  const double r2 = r * r;
  double y = kLogA1 * r + kLogA2;
  y = kLogA0 * r2 + y;
  y = y * r2 + (y0 + r);
  return static_cast<float>(y);
}

/// logf(x): -inf at +-0, NaN below 0 and at NaN, +inf at +inf; a
/// subnormal is scaled by 2^23 first.
inline float log(float x) {
  std::uint32_t ix = std::bit_cast<std::uint32_t>(x);
  if (ix - 0x00800000U >= kInfBits - 0x00800000U) {
    if (ix * 2 == 0) return -std::numeric_limits<float>::infinity();
    if (ix == kInfBits) return x;
    if ((ix & 0x80000000U) != 0 || ix * 2 >= 0xff000000U) return (x - x) / (x - x);
    ix = std::bit_cast<std::uint32_t>(x * 0x1p23F) - (23U << 23);
  }
  return log_normal(ix);
}

}  // namespace
}  // namespace bhss::dsp::simd::detail

namespace bhss::dsp::simd {

/// cf{cosf(x), sinf(x)}: one element of sincos_f32, for loops that cannot
/// batch (the Costas NCO).
using detail::sincos;

/// |z| as std::abs computes it for std::complex<float> under glibc: its
/// cabsf, which is hypotf, float(sqrt(double(re)^2 + double(im)^2)). Both
/// squares are exact in double, so the one rounded sum leaves no room for
/// a fused variant. An infinite rail gives +inf, else a (quiet) NaN rail
/// gives NaN, as in hypotf.
[[nodiscard]] inline float abs(cf z) noexcept {
  const float re = z.real();
  const float im = z.imag();
  if (!std::isfinite(re) || !std::isfinite(im)) {
    return std::isinf(re) || std::isinf(im) ? std::numeric_limits<float>::infinity() : re + im;
  }
  const auto dr = static_cast<double>(re);
  const auto di = static_cast<double>(im);
  return static_cast<float>(std::sqrt(dr * dr + di * di));
}

}  // namespace bhss::dsp::simd
