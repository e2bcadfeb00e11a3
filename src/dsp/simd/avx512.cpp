// AVX-512 bodies of the two kernels that gain from 512-bit vectors:
// correlate_lags and gaussian_cf. Every other kernel keeps its AVX2 body
// (DESIGN §11 has the measurements). Like avx2.cpp, the unit is compiled
// for the baseline ISA and only the avx512:: bodies below are compiled
// for AVX-512F and DQ, through `#pragma GCC target` after every include,
// so no weak function the unit emits holds an EVEX instruction (ctest
// avx2_weak_symbols_baseline_isa scans this object too). The dispatcher
// enters the bodies only where the CPU reports both (tiers.hpp).
//
// AVX-512F has fused multiply-adds, and a compiler may contract a
// multiply feeding an add into one; the build's -ffp-contract=off
// forbids that, as the bit-exactness contract needs (simd.hpp). There is
// no addsub either: a - b is computed as a + (-b), which IEEE defines as
// the same operation, with the negation folded into an operand (a sign
// flip, exact).

// GCC 12's AVX-512 intrinsics pass an undefined vector as the unused
// source of their builtins (_mm512_undefined_ps and kin), which its
// -Wmaybe-uninitialized reports at each use inlined from the header (GCC
// bug 105593, fixed in GCC 13). The pragma covers the header's lines only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "dsp/simd/scalar_kernels.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/simd/tiers.hpp"

// Every header above is compiled for the baseline ISA.
#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq")

namespace bhss::dsp::simd::avx512 {

namespace {

inline const float* fp(const cf* p) { return reinterpret_cast<const float*>(p); }
inline float* fp(cf* p) { return reinterpret_cast<float*>(p); }

/// The low `n` bits set, n <= 32.
inline std::uint32_t low_bits(std::size_t n) {
  return static_cast<std::uint32_t>((std::uint64_t{1} << n) - 1U);
}

/// Steps of k per strip of the exchanged copy, as in the AVX2 body.
constexpr std::size_t kStrip = 256;

constexpr __mmask16 kAllLanes = 0xFFFF;

/// x * conj(r) of eight lags, with r's parts broadcast in cr and ci, z
/// the eight x samples and zt the same samples as [xi, -xr]:
///   re = rr*xr + ri*xi   (the reference's xr*rr - xi*(-ri))
///   im = rr*xi + ri*(-xr) (its xr*(-ri) + xi*rr)
/// The same products and one rounded add per component.
inline __m512 cmul_conj8(__m512 cr, __m512 ci, __m512 z, __m512 zt) {
  return _mm512_add_ps(_mm512_mul_ps(cr, z), _mm512_mul_ps(ci, zt));
}

/// Lags [0, n_live) of x in G groups of eight, n_live in (8 (G - 1), 8 G]:
/// one sweep of the reference feeds one accumulator per group, the last
/// group's loads and stores masked to its live lags, so no lane past
/// n_live reads x and each live lane sums in k order. As in the AVX2
/// body, each strip of up to kStrip steps of k gets one exchanged copy
/// (here with xr negated) on the stack, and the sweep loads both. The
/// accumulators are named registers: GCC keeps an array of vectors in
/// memory. Inlined, so that a full block's masks are constants and its
/// loads plain ones; out of line GCC reloads the last mask from the
/// stack on every step of k, one more uop on port 5, an FP port.
template <int G>
[[gnu::always_inline]] inline void correlate_groups(const cf* x, const cf* ref, std::size_t n_ref,
                                                    cf* out, std::size_t n_live) {
  static_assert(G >= 1 && G <= 4);
  const auto last = static_cast<__mmask16>(low_bits(2 * (n_live - 8 * (G - 1))));
  const __mmask16 m0 = G == 1 ? last : kAllLanes;
  const __mmask16 m1 = G == 2 ? last : kAllLanes;
  const __mmask16 m2 = G == 3 ? last : kAllLanes;
  const __mmask16 m3 = G == 4 ? last : kAllLanes;
  const __m512 re_sign =
      _mm512_castsi512_ps(_mm512_set1_epi64(static_cast<long long>(1ULL << 63)));
  alignas(64) float swapped[2 * (kStrip + 32)];
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps();
  __m512 acc3 = _mm512_setzero_ps();
  for (std::size_t k0 = 0; k0 < n_ref; k0 += kStrip) {
    const std::size_t n_k = std::min(kStrip, n_ref - k0);
    const float* base = fp(x + k0);
    // The strip's live loads reach samples [0, n_k + n_live - 1) from base.
    const std::size_t n_swap = n_k + n_live - 1;
    for (std::size_t i = 0; i < n_swap; i += 8) {
      const auto m = static_cast<__mmask16>(low_bits(2 * std::min<std::size_t>(8, n_swap - i)));
      const __m512 v = _mm512_permute_ps(_mm512_maskz_loadu_ps(m, base + 2 * i), 0xB1);
      _mm512_store_ps(swapped + 2 * i, _mm512_xor_ps(v, re_sign));
    }
    const float* r = fp(ref + k0);
    for (std::size_t k = 0; k < n_k; ++k) {
      const __m512 cr = _mm512_set1_ps(r[2 * k]);
      const __m512 ci = _mm512_set1_ps(r[2 * k + 1]);
      const float* p = base + 2 * k;
      const float* q = swapped + 2 * k;
      acc0 = _mm512_add_ps(acc0, cmul_conj8(cr, ci, _mm512_maskz_loadu_ps(m0, p),
                                            _mm512_maskz_loadu_ps(m0, q)));
      if constexpr (G > 1) {
        acc1 = _mm512_add_ps(acc1, cmul_conj8(cr, ci, _mm512_maskz_loadu_ps(m1, p + 16),
                                              _mm512_maskz_loadu_ps(m1, q + 16)));
      }
      if constexpr (G > 2) {
        acc2 = _mm512_add_ps(acc2, cmul_conj8(cr, ci, _mm512_maskz_loadu_ps(m2, p + 32),
                                              _mm512_maskz_loadu_ps(m2, q + 32)));
      }
      if constexpr (G > 3) {
        acc3 = _mm512_add_ps(acc3, cmul_conj8(cr, ci, _mm512_maskz_loadu_ps(m3, p + 48),
                                              _mm512_maskz_loadu_ps(m3, q + 48)));
      }
    }
  }
  float* o = fp(out);
  _mm512_mask_storeu_ps(o, m0, acc0);
  if constexpr (G > 1) _mm512_mask_storeu_ps(o + 16, m1, acc1);
  if constexpr (G > 2) _mm512_mask_storeu_ps(o + 32, m2, acc2);
  if constexpr (G > 3) _mm512_mask_storeu_ps(o + 48, m3, acc3);
}

}  // namespace

void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out, std::size_t n_lags) {
  BHSS_REQUIRE(x != nullptr && ref != nullptr && out != nullptr, "correlate_lags: null buffer");
  // Blocks of 32 lags, then the rest in one sweep of as many groups as it
  // fills: a group holds an accumulator only if one of its lags is live.
  std::size_t l = 0;
  for (; l + 32 <= n_lags; l += 32) correlate_groups<4>(x + l, ref, n_ref, out + l, 32);
  const std::size_t rest = n_lags - l;
  switch ((rest + 7) / 8) {
    case 1:
      correlate_groups<1>(x + l, ref, n_ref, out + l, rest);
      break;
    case 2:
      correlate_groups<2>(x + l, ref, n_ref, out + l, rest);
      break;
    case 3:
      correlate_groups<3>(x + l, ref, n_ref, out + l, rest);
      break;
    case 4:
      correlate_groups<4>(x + l, ref, n_ref, out + l, rest);
      break;
    default:
      break;
  }
}

// ------------------------------------------------ Gaussian noise stream

namespace {

using u64 = std::uint64_t;

/// Accepted attempts finished per pass: fixes the stack scratch below.
constexpr std::size_t kBlock = 256;

inline __m512i splat(u64 v) { return _mm512_set1_epi64(static_cast<long long>(v)); }
inline __m512i load8(const u64* p) { return _mm512_loadu_si512(p); }
inline void store8(u64* p, __m512i v) { _mm512_storeu_si512(p, v); }

/// Eight twist steps (detail::mt_twist_word lane by lane).
inline __m512i twist8(__m512i cur, __m512i nxt, __m512i far) {
  const __m512i y = _mm512_or_si512(_mm512_and_si512(cur, splat(detail::kMtUpper)),
                                    _mm512_and_si512(nxt, splat(detail::kMtLower)));
  const __m512i odd = _mm512_sub_epi64(_mm512_setzero_si512(), _mm512_and_si512(y, splat(1)));
  return _mm512_xor_si512(_mm512_xor_si512(far, _mm512_srli_epi64(y, 1)),
                          _mm512_and_si512(odd, splat(detail::kMtMatrix)));
}

/// The whole twist in the standard's order, eight words at a time, as
/// the AVX2 body runs it four at a time. The first region, whose far
/// words are old, is n - m = 156 words, no multiple of 8: the group
/// across its end takes its first four far words from the old last four
/// and the other four from the four new first ones.
void twist(std::array<u64, Mt19937_64::kWords>& words) {
  u64* w = words.data();
  constexpr std::size_t n = Mt19937_64::kWords;
  constexpr std::size_t m = detail::kMtShift;
  static_assert((n - m) % 8 == 4);
  std::size_t k = 0;
  for (; k + 8 <= n - m; k += 8) {
    store8(w + k, twist8(load8(w + k), load8(w + k + 1), load8(w + k + m)));
  }
  const __m512i straddle = _mm512_alignr_epi64(load8(w), load8(w + n - 8), 4);
  store8(w + k, twist8(load8(w + k), load8(w + k + 1), straddle));
  for (k += 8; k + 8 < n; k += 8) {
    store8(w + k, twist8(load8(w + k), load8(w + k + 1), load8(w + k + m - n)));
  }
  detail::mt_twist(words, k);
}

inline __m512i temper8(__m512i z) {
  z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_srli_epi64(z, 29), splat(0x5555555555555555ULL)));
  z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_slli_epi64(z, 17), splat(0x71D67FFFEDA60000ULL)));
  z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_slli_epi64(z, 37), splat(0xFFF7EEE000000000ULL)));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 43));
}

/// The next `count` engine outputs, in order.
void draw(Mt19937_64& eng, u64* u, std::size_t count) {
  while (count > 0) {
    if (eng.next == Mt19937_64::kWords) {
      twist(eng.words);
      eng.next = 0;
    }
    const std::size_t take = std::min(count, Mt19937_64::kWords - eng.next);
    const u64* src = eng.words.data() + eng.next;
    std::size_t i = 0;
    for (; i + 8 <= take; i += 8) store8(u + i, temper8(load8(src + i)));
    if (i < take) {
      const auto m = static_cast<__mmask8>(low_bits(take - i));
      _mm512_mask_storeu_epi64(u + i, m, temper8(_mm512_maskz_loadu_epi64(m, src + i)));
    }
    eng.next += take;
    u += take;
    count -= take;
  }
}

/// detail::polar_coordinate of eight words; the uint64 -> float
/// conversion is AVX-512DQ's, correctly rounded like the scalar cast.
inline __m256 polar_coordinate8(__m512i u) {
  const __m256 c = _mm256_min_ps(_mm256_mul_ps(_mm512_cvtepu64_ps(u), _mm256_set1_ps(0x1p-64F)),
                                 _mm256_set1_ps(0x1.fffffep-1F));
  const __m512d two_c = _mm512_cvtps_pd(_mm256_mul_ps(_mm256_set1_ps(2.0F), c));
  return _mm512_cvtpd_ps(_mm512_sub_pd(two_c, _mm512_set1_pd(1.0)));
}

inline __m512 join(__m256 lo, __m256 hi) {
  return _mm512_insertf32x8(_mm512_castps256_ps512(lo), hi, 1);
}

/// detail::log_normal of eight positive normal floats, the 16-entry
/// tables looked up by a two-table permute instead of a gather.
inline __m256 log8(__m256i ix) {
  const __m256i tmp = _mm256_sub_epi32(ix, _mm256_set1_epi32(static_cast<int>(detail::kLogOff)));
  const __m256i i = _mm256_and_si256(_mm256_srli_epi32(tmp, 19), _mm256_set1_epi32(15));
  const __m256i k = _mm256_srai_epi32(tmp, 23);
  const __m256i iz =
      _mm256_sub_epi32(ix, _mm256_and_si256(tmp, _mm256_set1_epi32(static_cast<int>(0xff800000U))));
  const __m512d z = _mm512_cvtps_pd(_mm256_castsi256_ps(iz));
  const __m512i idx = _mm512_cvtepu32_epi64(i);
  const __m512d invc = _mm512_permutex2var_pd(_mm512_loadu_pd(detail::kLogInvc.data()), idx,
                                              _mm512_loadu_pd(detail::kLogInvc.data() + 8));
  const __m512d logc = _mm512_permutex2var_pd(_mm512_loadu_pd(detail::kLogLogc.data()), idx,
                                              _mm512_loadu_pd(detail::kLogLogc.data() + 8));
  const __m512d r = _mm512_sub_pd(_mm512_mul_pd(z, invc), _mm512_set1_pd(1.0));
  const __m512d y0 =
      _mm512_add_pd(logc, _mm512_mul_pd(_mm512_cvtepi32_pd(k), _mm512_set1_pd(detail::kLn2)));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d y = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(detail::kLogA1), r),
                            _mm512_set1_pd(detail::kLogA2));
  y = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(detail::kLogA0), r2), y);
  y = _mm512_add_pd(_mm512_mul_pd(y, r2), _mm512_add_pd(y0, r));
  return _mm512_cvtpd_ps(y);
}

/// logf of sixteen positive normal floats.
inline __m512 log16(__m512 v) {
  const __m512i ix = _mm512_castps_si512(v);
  return join(log8(_mm512_castsi512_si256(ix)), log8(_mm512_extracti64x4_epi64(ix, 1)));
}

}  // namespace

void gaussian_cf(Mt19937_64& eng, cf* out, std::size_t n) {
  BHSS_REQUIRE(out != nullptr || n == 0, "gaussian_cf: null buffer");
  // Sixteen attempts take 32 words: a pass's groups fill at most 2 * kBlock.
  static_assert(kBlock % 16 == 0);
  alignas(64) u64 u[2 * kBlock];
  alignas(64) float xs[kBlock];
  alignas(64) float ys[kBlock];
  alignas(64) float r2s[kBlock];
  // Attempt i's x and y coordinates, from words 2i and 2i + 1.
  const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
  const __m512i odd = _mm512_add_epi32(even, _mm512_set1_epi32(1));
  // Sample s as (re[s], im[s]), for samples 0-7 and 8-15.
  const __m512i lo = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
  const __m512i hi = _mm512_add_epi32(lo, _mm512_set1_epi32(8));
  while (n > 0) {
    const std::size_t k = std::min(n, kBlock);
    std::size_t have = 0;
    while (have < k) {
      // One attempt per missing sample: the sequential algorithm consumes
      // every one of them before it can have k, so no word is drawn early.
      const std::size_t need = k - have;
      draw(eng, u, 2 * need);
      const std::size_t groups = (need + 15) / 16;
      std::fill(u + 2 * need, u + 32 * groups, u64{0});
      for (std::size_t g = 0; g < groups; ++g) {
        const u64* w = u + 32 * g;
        const __m512 a = join(polar_coordinate8(load8(w)), polar_coordinate8(load8(w + 8)));
        const __m512 b = join(polar_coordinate8(load8(w + 16)), polar_coordinate8(load8(w + 24)));
        const __m512 x = _mm512_permutex2var_ps(a, even, b);
        const __m512 y = _mm512_permutex2var_ps(a, odd, b);
        const __m512 r2 = _mm512_add_ps(_mm512_mul_ps(x, x), _mm512_mul_ps(y, y));
        const __mmask16 rejected = static_cast<__mmask16>(
            _mm512_cmp_ps_mask(r2, _mm512_set1_ps(1.0F), _CMP_GT_OQ) |
            _mm512_cmp_ps_mask(r2, _mm512_setzero_ps(), _CMP_EQ_OQ));
        const auto accept = static_cast<__mmask16>(
            ~rejected & low_bits(std::min<std::size_t>(16, need - 16 * g)));
        _mm512_mask_compressstoreu_ps(xs + have, accept, x);
        _mm512_mask_compressstoreu_ps(ys + have, accept, y);
        _mm512_mask_compressstoreu_ps(r2s + have, accept, r2);
        have += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(accept)));
      }
    }
    // An accepted r2 is a positive normal float, so log16 needs no
    // special case: x and y are multiples of 2^-24 in [-1, 1), so a
    // nonzero r2 is at least 2^-48, and the attempt with r2 = 0 or r2 > 1
    // was rejected. Lanes past k read 1.
    for (std::size_t j = 0; j < k; j += 16) {
      const std::size_t live = std::min<std::size_t>(16, k - j);
      const auto m = static_cast<__mmask16>(low_bits(live));
      const __m512 r2 = _mm512_mask_loadu_ps(_mm512_set1_ps(1.0F), m, r2s + j);
      const __m512 mult =
          _mm512_sqrt_ps(_mm512_div_ps(_mm512_mul_ps(_mm512_set1_ps(-2.0F), log16(r2)), r2));
      const __m512 re = _mm512_add_ps(_mm512_mul_ps(_mm512_maskz_loadu_ps(m, ys + j), mult),
                                      _mm512_setzero_ps());
      const __m512 im = _mm512_add_ps(_mm512_mul_ps(_mm512_maskz_loadu_ps(m, xs + j), mult),
                                      _mm512_setzero_ps());
      const std::uint32_t floats = low_bits(2 * live);
      float* o = fp(out + j);
      _mm512_mask_storeu_ps(o, static_cast<__mmask16>(floats), _mm512_permutex2var_ps(re, lo, im));
      _mm512_mask_storeu_ps(o + 16, static_cast<__mmask16>(floats >> 16),
                            _mm512_permutex2var_ps(re, hi, im));
    }
    out += k;
    n -= k;
  }
}

}  // namespace bhss::dsp::simd::avx512

#pragma GCC pop_options
