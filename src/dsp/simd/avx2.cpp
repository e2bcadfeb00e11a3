// AVX2 implementations of the simd.hpp kernels. Compiled with -mavx2 (and
// nothing more: no -mfma — a fused multiply-add rounds once where the
// scalar reference rounds twice and would break bit-identity).
//
// Layout convention: complex samples stay interleaved in memory
// ([re0 im0 re1 im1 ...]); one __m256 holds four cf values. The complex
// product uses _mm256_addsub_ps, which computes exactly the scalar
// (ar*br - ai*bi, ar*bi + ai*br) form — the same products, the same
// single add/sub per component, hence the same bits as
// std::complex<float> multiplication of finite values.
//
// Every kernel vectorizes only across its documented independence axis
// (outputs / lags / symbols / butterflies / polar attempts) and keeps the
// reduction index sequential; tails and short inputs fall through to the
// shared scalar bodies in scalar_kernels.hpp.

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "dsp/simd/scalar_kernels.hpp"
#include "dsp/simd/simd.hpp"

namespace bhss::dsp::simd::avx2 {

namespace {

inline const float* fp(const cf* p) { return reinterpret_cast<const float*>(p); }
inline float* fp(cf* p) { return reinterpret_cast<float*>(p); }

/// Complex product of four (w, z) pairs: (wr*zr - wi*zi, wr*zi + wi*zr).
inline __m256 cmul4(__m256 w, __m256 z) {
  const __m256 wr = _mm256_moveldup_ps(w);            // [wr0 wr0 wr1 wr1 ...]
  const __m256 wi = _mm256_movehdup_ps(w);            // [wi0 wi0 wi1 wi1 ...]
  const __m256 zs = _mm256_permute_ps(z, 0xB1);       // [zi0 zr0 zi1 zr1 ...]
  return _mm256_addsub_ps(_mm256_mul_ps(wr, z), _mm256_mul_ps(wi, zs));
}

/// Broadcast-times-vector complex product: t * z for scalar t = (tr, ti).
inline __m256 cmul_bcast4(__m256 tr, __m256 ti, __m256 z) {
  const __m256 zs = _mm256_permute_ps(z, 0xB1);
  return _mm256_addsub_ps(_mm256_mul_ps(tr, z), _mm256_mul_ps(ti, zs));
}

/// Duplicate four packed floats pairwise into a __m256: [w0 w0 w1 w1 w2 w2 w3 w3].
inline __m256 dup_pairs(__m128 w) {
  return _mm256_set_m128(_mm_unpackhi_ps(w, w), _mm_unpacklo_ps(w, w));
}

}  // namespace

void fir_filter_block(const cf* taps, std::size_t n_taps, const cf* x, cf* out,
                      std::size_t n_out) {
  std::size_t i = 0;
  for (; i + 8 <= n_out; i += 8) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    // Outputs i..i+7 share the tap walk; for tap k their inputs are the
    // contiguous run x[i + n_taps-1 - k ...], so both loads are unaligned
    // vector loads, no shuffles.
    const float* base = fp(x + i + n_taps - 1);
    for (std::size_t k = 0; k < n_taps; ++k) {
      const __m256 tr = _mm256_set1_ps(taps[k].real());
      const __m256 ti = _mm256_set1_ps(taps[k].imag());
      const float* p = base - 2 * k;
      acc0 = _mm256_add_ps(acc0, cmul_bcast4(tr, ti, _mm256_loadu_ps(p)));
      acc1 = _mm256_add_ps(acc1, cmul_bcast4(tr, ti, _mm256_loadu_ps(p + 8)));
    }
    _mm256_storeu_ps(fp(out + i), acc0);
    _mm256_storeu_ps(fp(out + i + 4), acc1);
  }
  scalar::fir_filter_block(taps, n_taps, x + i, out + i, n_out - i);
}

void fir_decimate_real(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                       std::size_t n_out, std::size_t stride) {
  std::size_t m = 0;
  const __m128i idx = _mm_set_epi32(static_cast<int>(3 * stride), static_cast<int>(2 * stride),
                                    static_cast<int>(stride), 0);
  for (; m + 4 <= n_out; m += 4) {
    __m256 acc = _mm256_setzero_ps();
    const long long* base =
        reinterpret_cast<const long long*>(x + m * stride + n_taps - 1);
    for (std::size_t k = 0; k < n_taps; ++k) {
      // One cf (64 bits) per output lane, stride cf apart: a 4-way i64 gather.
      const __m256i packed =
          _mm256_i32gather_epi64(base - static_cast<std::ptrdiff_t>(k), idx, 8);
      const __m256 vx = _mm256_castsi256_ps(packed);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(taps[k]), vx));
    }
    _mm256_storeu_ps(fp(out + m), acc);
  }
  scalar::fir_decimate_real(taps, n_taps, x + m * stride, out + m, n_out - m, stride);
}

void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out, std::size_t n_lags) {
  std::size_t l = 0;
  for (; l + 8 <= n_lags; l += 8) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    const float* base = fp(x + l);
    for (std::size_t k = 0; k < n_ref; ++k) {
      // conj(ref[k]) broadcast: negating the float imag flips exactly the
      // sign bit, matching std::conj.
      const __m256 cr = _mm256_set1_ps(ref[k].real());
      const __m256 ci = _mm256_set1_ps(-ref[k].imag());
      const float* p = base + 2 * k;
      acc0 = _mm256_add_ps(acc0, cmul_bcast4(cr, ci, _mm256_loadu_ps(p)));
      acc1 = _mm256_add_ps(acc1, cmul_bcast4(cr, ci, _mm256_loadu_ps(p + 8)));
    }
    _mm256_storeu_ps(fp(out + l), acc0);
    _mm256_storeu_ps(fp(out + l + 4), acc1);
  }
  scalar::correlate_lags(x + l, ref, n_ref, out + l, n_lags - l);
}

void despread_correlate16(const cf* pairs, std::size_t n_pairs, const float* se, const float* so,
                          const float* cols, cf* out) {
  // Sixteen symbol lanes, split re/im (structure of arrays): 2+2 __m256
  // accumulators. The chip-pair index m is the sequential reduction axis.
  __m256 re0 = _mm256_setzero_ps();
  __m256 re1 = _mm256_setzero_ps();
  __m256 im0 = _mm256_setzero_ps();
  __m256 im1 = _mm256_setzero_ps();
  for (std::size_t m = 0; m < n_pairs; ++m) {
    const __m256 pr = _mm256_set1_ps(pairs[m].real());
    const __m256 pi = _mm256_set1_ps(pairs[m].imag());
    const __m256 vse = _mm256_set1_ps(se[m]);
    const __m256 vnso = _mm256_set1_ps(-so[m]);
    const float* even = cols + (2 * m) * 16;
    const float* odd = cols + (2 * m + 1) * 16;
    const __m256 rr0 = _mm256_mul_ps(vse, _mm256_loadu_ps(even));
    const __m256 rr1 = _mm256_mul_ps(vse, _mm256_loadu_ps(even + 8));
    const __m256 ri0 = _mm256_mul_ps(vnso, _mm256_loadu_ps(odd));
    const __m256 ri1 = _mm256_mul_ps(vnso, _mm256_loadu_ps(odd + 8));
    // p * ref: re += pr*rr - pi*ri; im += pr*ri + pi*rr (scalar order).
    re0 = _mm256_add_ps(re0, _mm256_sub_ps(_mm256_mul_ps(pr, rr0), _mm256_mul_ps(pi, ri0)));
    re1 = _mm256_add_ps(re1, _mm256_sub_ps(_mm256_mul_ps(pr, rr1), _mm256_mul_ps(pi, ri1)));
    im0 = _mm256_add_ps(im0, _mm256_add_ps(_mm256_mul_ps(pr, ri0), _mm256_mul_ps(pi, rr0)));
    im1 = _mm256_add_ps(im1, _mm256_add_ps(_mm256_mul_ps(pr, ri1), _mm256_mul_ps(pi, rr1)));
  }
  alignas(32) float re[16];
  alignas(32) float im[16];
  _mm256_store_ps(re, re0);
  _mm256_store_ps(re + 8, re1);
  _mm256_store_ps(im, im0);
  _mm256_store_ps(im + 8, im1);
  for (std::size_t s = 0; s < 16; ++s) out[s] = cf{re[s], im[s]};
}

// ----------------------------------------------------------------- FFT
//
// The same butterflies as scalar::fft_stages, scheduled for
// registers: the half = 1 and half = 2 stages of each 4-sample block in
// one pass, then the half >= 4 stages two at a time. Every butterfly
// computes t = w * b with cmul4's products and single add/sub, then
// a + t and a - t; where both outputs share a vector, a - t is taken as
// a + (t ^ sign), which IEEE defines as the same operation (subtraction
// is addition of the negation, and negation flips only the sign bit).

namespace {

constexpr int kSign = static_cast<int>(0x80000000U);

/// Sign bits of the imaginary lanes: xor-ing a twiddle vector with this
/// is conj(w) per cf.
inline __m256 conj_mask(bool inverse) {
  return inverse ? _mm256_castsi256_ps(_mm256_setr_epi32(0, kSign, 0, kSign, 0, kSign, 0, kSign))
                 : _mm256_setzero_ps();
}

/// Stages half = 1 and half = 2, one 4-sample block per vector.
void first_two_stages(cf* x, std::size_t n, const cf* tw, __m256 conj) {
  const __m256 w1 = _mm256_xor_ps(_mm256_castpd_ps(_mm256_broadcast_sd(
                                      reinterpret_cast<const double*>(tw))), conj);
  const __m256 w2 = _mm256_xor_ps(_mm256_broadcast_ps(reinterpret_cast<const __m128*>(tw + 1)),
                                  conj);
  // Negate t for the b output of each butterfly: cf 1 and 3, then cf 2 and 3.
  const __m256 sign1 =
      _mm256_castsi256_ps(_mm256_setr_epi32(0, 0, kSign, kSign, 0, 0, kSign, kSign));
  const __m256 sign2 =
      _mm256_castsi256_ps(_mm256_setr_epi32(0, 0, 0, 0, kSign, kSign, kSign, kSign));
  for (std::size_t s = 0; s < n; s += 4) {
    const __m256 v = _mm256_loadu_ps(fp(x + s));
    // half = 1: [c0 c0 c2 c2] + ([c1 c1 c3 c3] * tw[0]) ^ sign1.
    const __m256 a1 = _mm256_permute_ps(v, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 b1 = _mm256_permute_ps(v, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 y = _mm256_add_ps(a1, _mm256_xor_ps(cmul4(w1, b1), sign1));
    // half = 2: [y0 y1 y0 y1] + ([y2 y3 y2 y3] * [tw1 tw2 tw1 tw2]) ^ sign2.
    const __m256 a2 = _mm256_permute2f128_ps(y, y, 0x00);
    const __m256 b2 = _mm256_permute2f128_ps(y, y, 0x11);
    _mm256_storeu_ps(fp(x + s), _mm256_add_ps(a2, _mm256_xor_ps(cmul4(w2, b2), sign2)));
  }
}

/// One stage of half h >= 4, four butterflies per vector.
void radix2_stage(cf* x, std::size_t n, const cf* tw, std::size_t h, __m256 conj) {
  const cf* wh = tw + h - 1;
  for (std::size_t s = 0; s < n; s += 2 * h) {
    for (std::size_t k = 0; k < h; k += 4) {
      cf* p = x + s + k;
      const __m256 t = cmul4(_mm256_xor_ps(_mm256_loadu_ps(fp(wh + k)), conj),
                             _mm256_loadu_ps(fp(p + h)));
      const __m256 a = _mm256_loadu_ps(fp(p));
      _mm256_storeu_ps(fp(p), _mm256_add_ps(a, t));
      _mm256_storeu_ps(fp(p + h), _mm256_sub_ps(a, t));
    }
  }
}

/// Stages h and 2h (h >= 4) in one pass: for each k, the four samples
/// k, k + h, k + 2h, k + 3h of a 4h block go through both butterfly
/// levels in registers. Stage h pairs (k, k+h) and (k+2h, k+3h) with
/// tw_h[k]; stage 2h pairs (k, k+2h) with tw_2h[k] and (k+h, k+3h) with
/// tw_2h[k+h].
void radix4_pass(cf* x, std::size_t n, const cf* tw, std::size_t h, __m256 conj) {
  const cf* wh = tw + h - 1;
  const cf* w2h = tw + 2 * h - 1;
  for (std::size_t s = 0; s < n; s += 4 * h) {
    for (std::size_t k = 0; k < h; k += 4) {
      cf* p = x + s + k;
      const __m256 w1 = _mm256_xor_ps(_mm256_loadu_ps(fp(wh + k)), conj);
      const __m256 w2 = _mm256_xor_ps(_mm256_loadu_ps(fp(w2h + k)), conj);
      const __m256 w3 = _mm256_xor_ps(_mm256_loadu_ps(fp(w2h + h + k)), conj);
      const __m256 a = _mm256_loadu_ps(fp(p));
      const __m256 b = _mm256_loadu_ps(fp(p + h));
      const __m256 c = _mm256_loadu_ps(fp(p + 2 * h));
      const __m256 d = _mm256_loadu_ps(fp(p + 3 * h));
      const __m256 t1 = cmul4(w1, b);
      const __m256 t2 = cmul4(w1, d);
      const __m256 a1 = _mm256_add_ps(a, t1);
      const __m256 b1 = _mm256_sub_ps(a, t1);
      const __m256 c1 = _mm256_add_ps(c, t2);
      const __m256 d1 = _mm256_sub_ps(c, t2);
      const __m256 t3 = cmul4(w2, c1);
      const __m256 t4 = cmul4(w3, d1);
      _mm256_storeu_ps(fp(p), _mm256_add_ps(a1, t3));
      _mm256_storeu_ps(fp(p + h), _mm256_add_ps(b1, t4));
      _mm256_storeu_ps(fp(p + 2 * h), _mm256_sub_ps(a1, t3));
      _mm256_storeu_ps(fp(p + 3 * h), _mm256_sub_ps(b1, t4));
    }
  }
}

}  // namespace

void fft_stages(cf* x, std::size_t n, const cf* tw, bool inverse) {
  BHSS_REQUIRE(x != nullptr && tw != nullptr, "fft_stages: null buffer");
  if (n < 4) {
    scalar::fft_stages(x, n, tw, inverse);
    return;
  }
  const __m256 conj = conj_mask(inverse);
  first_two_stages(x, n, tw, conj);
  // log2(n) - 2 stages remain; an odd count runs its first one alone.
  std::size_t h = 4;
  if (std::countr_zero(n) % 2 == 1) {
    radix2_stage(x, n, tw, h, conj);
    h *= 2;
  }
  for (; h < n; h *= 4) radix4_pass(x, n, tw, h, conj);
}

void cmul_inplace(cf* a, const cf* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 va = _mm256_loadu_ps(fp(a + i));
    const __m256 vb = _mm256_loadu_ps(fp(b + i));
    _mm256_storeu_ps(fp(a + i), cmul4(va, vb));
  }
  scalar::cmul_inplace(a + i, b + i, n - i);
}

void scale_inplace(cf* x, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_ps(fp(x + i), _mm256_mul_ps(_mm256_loadu_ps(fp(x + i)), vs));
  }
  scalar::scale_inplace(x + i, s, n - i);
}

void window_apply(const cf* x, const float* w, cf* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 wd = dup_pairs(_mm_loadu_ps(w + i));
    _mm256_storeu_ps(fp(out + i), _mm256_mul_ps(_mm256_loadu_ps(fp(x + i)), wd));
  }
  scalar::window_apply(x + i, w + i, out + i, n - i);
}

void scale_pulse(float a, float b, const float* pulse, cf* out, std::size_t n) {
  // out[k] = (a*p, b*p): broadcast (a, b) into alternating lanes and
  // multiply by the pairwise-duplicated pulse.
  const __m256 ab = _mm256_setr_ps(a, b, a, b, a, b, a, b);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256 pd = dup_pairs(_mm_loadu_ps(pulse + k));
    _mm256_storeu_ps(fp(out + k), _mm256_mul_ps(ab, pd));
  }
  scalar::scale_pulse(a, b, pulse + k, out + k, n - k);
}

// ------------------------------------------------ Gaussian noise stream

namespace {

using u64 = std::uint64_t;

/// Accepted attempts finished per pass: fixes the stack scratch below.
constexpr std::size_t kBlock = 256;

inline __m256i splat(u64 v) { return _mm256_set1_epi64x(static_cast<long long>(v)); }
inline __m256i load4(const u64* p) { return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)); }
inline void store4(u64* p, __m256i v) { _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v); }

/// Four twist steps (detail::mt_twist_word lane by lane).
inline __m256i twist4(__m256i cur, __m256i nxt, __m256i far) {
  const __m256i y = _mm256_or_si256(_mm256_and_si256(cur, splat(detail::kMtUpper)),
                                    _mm256_and_si256(nxt, splat(detail::kMtLower)));
  const __m256i odd = _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_and_si256(y, splat(1)));
  return _mm256_xor_si256(_mm256_xor_si256(far, _mm256_srli_epi64(y, 1)),
                          _mm256_and_si256(odd, splat(detail::kMtMatrix)));
}

/// The whole twist in the standard's order. Four consecutive words are
/// independent: each reads its old successor (not yet rewritten, it starts
/// the next group) and a far word that is old below n - m and already
/// rewritten from there on, exactly as in the scalar walk.
void twist(std::array<u64, Mt19937_64::kWords>& words) {
  u64* w = words.data();
  constexpr std::size_t n = Mt19937_64::kWords;
  constexpr std::size_t m = detail::kMtShift;
  static_assert((n - m) % 4 == 0);
  std::size_t k = 0;
  for (; k < n - m; k += 4) store4(w + k, twist4(load4(w + k), load4(w + k + 1), load4(w + k + m)));
  for (; k + 4 < n; k += 4) {
    store4(w + k, twist4(load4(w + k), load4(w + k + 1), load4(w + k + m - n)));
  }
  detail::mt_twist(words, k);
}

inline __m256i temper4(__m256i z) {
  z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_srli_epi64(z, 29), splat(0x5555555555555555ULL)));
  z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 17), splat(0x71D67FFFEDA60000ULL)));
  z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 37), splat(0xFFF7EEE000000000ULL)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
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
    for (; i + 4 <= take; i += 4) store4(u + i, temper4(load4(src + i)));
    for (; i < take; ++i) u[i] = detail::mt_temper(src[i]);
    eng.next += take;
    u += take;
    count -= take;
  }
}

/// float(u) of four words, correctly rounded like the scalar conversion.
/// AVX2 has no uint64 -> float instruction, so the words go through
/// double. That conversion is exact once a word >= 2^53 has its bits
/// below 2^11 folded into one sticky bit, and the fold cannot move the
/// float rounding, whose guard bit sits at 2^29 or higher for such words.
inline __m128 to_float4(__m256i u) {
  const __m256i low = splat(0x7FF);
  const __m256i folded =
      _mm256_andnot_si256(low, _mm256_or_si256(u, _mm256_add_epi64(_mm256_and_si256(u, low), low)));
  const __m256i narrow = _mm256_cmpeq_epi64(_mm256_srli_epi64(u, 53), _mm256_setzero_si256());
  const __m256i v = _mm256_blendv_epi8(folded, u, narrow);
  // Exact uint64 -> double: 2^84 + hi * 2^32 and 2^52 + lo as bit
  // patterns, then (2^84 + hi * 2^32 - (2^84 + 2^52)) + (2^52 + lo).
  const __m256i hi = _mm256_or_si256(_mm256_srli_epi64(v, 32), splat(0x4530000000000000ULL));
  const __m256i lo = _mm256_blend_epi32(v, splat(0x4330000000000000ULL), 0xAA);
  const __m256d d = _mm256_add_pd(
      _mm256_sub_pd(_mm256_castsi256_pd(hi), _mm256_set1_pd(0x1.00000001p84)),
      _mm256_castsi256_pd(lo));
  return _mm256_cvtpd_ps(d);
}

/// detail::polar_coordinate of four words.
inline __m128 polar_coordinate4(__m256i u) {
  const __m128 c = _mm_min_ps(_mm_mul_ps(to_float4(u), _mm_set1_ps(0x1p-64F)),
                              _mm_set1_ps(0x1.fffffep-1F));
  const __m256d two_c = _mm256_cvtps_pd(_mm_mul_ps(_mm_set1_ps(2.0F), c));
  return _mm256_cvtpd_ps(_mm256_sub_pd(two_c, _mm256_set1_pd(1.0)));
}

/// For each 8-lane accept mask, the kept lanes in order, one 4-bit lane
/// index per output slot: the _mm256_permutevar8x32_ps compaction table.
constexpr std::array<std::uint32_t, 256> kCompact = [] {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t mask = 0; mask < 256; ++mask) {
    std::uint32_t slot = 0;
    for (std::uint32_t lane = 0; lane < 8; ++lane) {
      if ((mask >> lane) & 1U) t[mask] |= lane << (4 * slot++);
    }
  }
  return t;
}();

inline __m256 compact(__m256 v, std::uint32_t mask) {
  const __m256i idx = _mm256_srlv_epi32(_mm256_set1_epi32(static_cast<int>(kCompact[mask])),
                                        _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28));
  return _mm256_permutevar8x32_ps(v, idx);
}

}  // namespace

void gaussian_cf(Mt19937_64& eng, cf* out, std::size_t n) {
  BHSS_REQUIRE(out != nullptr || n == 0, "gaussian_cf: null buffer");
  // Eight attempts take 16 words; the compaction stores whole vectors, so
  // the accepted-attempt arrays carry one vector of slack.
  alignas(32) u64 u[2 * kBlock + 16];
  alignas(32) float xs[kBlock + 8];
  alignas(32) float ys[kBlock + 8];
  alignas(32) float r2s[kBlock + 8];
  alignas(32) float logs[kBlock];
  while (n > 0) {
    const std::size_t k = std::min(n, kBlock);
    std::size_t have = 0;
    while (have < k) {
      // One attempt per missing sample: the sequential algorithm consumes
      // every one of them before it can have k, so no word is drawn early.
      const std::size_t need = k - have;
      draw(eng, u, 2 * need);
      const std::size_t groups = (need + 7) / 8;
      std::fill(u + 2 * need, u + 16 * groups, u64{0});
      for (std::size_t g = 0; g < groups; ++g) {
        const u64* w = u + 16 * g;
        const __m128 p0 = polar_coordinate4(load4(w));       // x0 y0 x1 y1
        const __m128 p1 = polar_coordinate4(load4(w + 4));   // x2 y2 x3 y3
        const __m128 p2 = polar_coordinate4(load4(w + 8));   // x4 y4 x5 y5
        const __m128 p3 = polar_coordinate4(load4(w + 12));  // x6 y6 x7 y7
        const __m256 a = _mm256_set_m128(p2, p0);
        const __m256 b = _mm256_set_m128(p3, p1);
        const __m256 x = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
        const __m256 y = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
        const __m256 r2 = _mm256_add_ps(_mm256_mul_ps(x, x), _mm256_mul_ps(y, y));
        const __m256 rejected = _mm256_or_ps(_mm256_cmp_ps(r2, _mm256_set1_ps(1.0F), _CMP_GT_OQ),
                                             _mm256_cmp_ps(r2, _mm256_setzero_ps(), _CMP_EQ_OQ));
        const std::size_t valid = std::min<std::size_t>(8, need - 8 * g);
        const auto mask = static_cast<std::uint32_t>(~_mm256_movemask_ps(rejected)) &
                          ((1U << valid) - 1U);
        _mm256_storeu_ps(xs + have, compact(x, mask));
        _mm256_storeu_ps(ys + have, compact(y, mask));
        _mm256_storeu_ps(r2s + have, compact(r2, mask));
        have += static_cast<std::size_t>(std::popcount(mask));
      }
    }
    const std::size_t vec = k - k % 8;
    for (std::size_t j = 0; j < vec; ++j) logs[j] = std::log(r2s[j]);
    for (std::size_t j = 0; j < vec; j += 8) {
      const __m256 r2 = _mm256_load_ps(r2s + j);
      const __m256 mult =
          _mm256_sqrt_ps(_mm256_div_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0F), _mm256_load_ps(logs + j)), r2));
      const __m256 re = _mm256_add_ps(_mm256_mul_ps(_mm256_load_ps(ys + j), mult), _mm256_setzero_ps());
      const __m256 im = _mm256_add_ps(_mm256_mul_ps(_mm256_load_ps(xs + j), mult), _mm256_setzero_ps());
      const __m256 lo = _mm256_unpacklo_ps(re, im);  // samples 0 1 | 4 5
      const __m256 hi = _mm256_unpackhi_ps(re, im);  // samples 2 3 | 6 7
      _mm256_storeu_ps(fp(out + j), _mm256_permute2f128_ps(lo, hi, 0x20));
      _mm256_storeu_ps(fp(out + j + 4), _mm256_permute2f128_ps(lo, hi, 0x31));
    }
    for (std::size_t j = vec; j < k; ++j) out[j] = detail::polar_sample(xs[j], ys[j], r2s[j]);
    out += k;
    n -= k;
  }
}

}  // namespace bhss::dsp::simd::avx2

#endif  // __AVX2__
