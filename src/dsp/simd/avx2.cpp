// AVX2 implementations of the simd.hpp kernels. The unit is compiled for
// the baseline ISA; only the avx2:: bodies below are compiled for AVX2,
// through `#pragma GCC target("avx2")` (and nothing more: no FMA — a
// fused multiply-add rounds once where the scalar reference rounds twice
// and would break bit-identity). A file-wide -mavx2 would also compile
// every inline function the unit instantiates (the contract failure path,
// libstdc++ templates) for AVX2, as weak symbols the linker may keep for
// the whole program; ctest avx2_weak_symbols_baseline_isa checks there
// is no such copy.
//
// Layout convention: complex samples stay interleaved in memory
// ([re0 im0 re1 im1 ...]); one __m256 holds four cf values. The complex
// product uses _mm256_addsub_ps, which computes exactly the scalar
// (ar*br - ai*bi, ar*bi + ai*br) form — the same products, the same
// single add/sub per component, hence the same bits as
// std::complex<float> multiplication of finite values.
//
// Every kernel vectorizes only across its documented independence axis
// (outputs / lags / symbols / butterflies / polar attempts / elements)
// and keeps the reduction index sequential; tails and short inputs fall
// through to the shared scalar bodies in scalar_kernels.hpp.

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "dsp/simd/scalar_kernels.hpp"
#include "dsp/simd/simd.hpp"

// Every header above is compiled for the baseline ISA.
#pragma GCC push_options
#pragma GCC target("avx2")

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

/// Complex product t * z, four per vector, with t's real parts in tr and
/// its imaginary parts in ti, each duplicated over its cf's two floats (a
/// broadcast scalar, or a duplicated twiddle table), given zs, z with re
/// and im exchanged.
inline __m256 cmul_bcast4(__m256 tr, __m256 ti, __m256 z, __m256 zs) {
  return _mm256_addsub_ps(_mm256_mul_ps(tr, z), _mm256_mul_ps(ti, zs));
}

/// The same product, exchanging z's re and im itself.
inline __m256 cmul_bcast4(__m256 tr, __m256 ti, __m256 z) {
  return cmul_bcast4(tr, ti, z, _mm256_permute_ps(z, 0xB1));
}

/// Duplicate four packed floats pairwise into a __m256: [w0 w0 w1 w1 w2 w2 w3 w3].
inline __m256 dup_pairs(__m128 w) {
  return _mm256_set_m128(_mm_unpackhi_ps(w, w), _mm_unpacklo_ps(w, w));
}

}  // namespace

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
  // Blocks of 32 lags: one sweep of the reference feeds eight independent
  // accumulators, so the adds of one k overlap instead of each waiting on
  // the previous k's add; every lag still sums its products in k order.
  // The accumulators are named registers on purpose: at -O2 GCC keeps an
  // array of __m256 in memory, and that loop ran slower than the
  // two-accumulator one below. A block's sweep loads each sample 32
  // times, so instead of exchanging re and im after every load, each strip
  // of up to kStrip steps of k gets one exchanged copy on the stack, and
  // the sweep loads both.
  constexpr std::size_t kStrip = 256;
  alignas(32) float swapped[2 * (kStrip + 32)] = {};
  std::size_t l = 0;
  for (; l + 32 <= n_lags; l += 32) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    __m256 acc4 = _mm256_setzero_ps();
    __m256 acc5 = _mm256_setzero_ps();
    __m256 acc6 = _mm256_setzero_ps();
    __m256 acc7 = _mm256_setzero_ps();
    for (std::size_t k0 = 0; k0 < n_ref; k0 += kStrip) {
      const std::size_t n_k = std::min(kStrip, n_ref - k0);
      const float* base = fp(x + l + k0);
      // The strip's loads reach samples [0, n_k + 31) from base.
      const std::size_t n_swap = n_k + 31;
      std::size_t i = 0;
      for (; i + 4 <= n_swap; i += 4) {
        _mm256_store_ps(swapped + 2 * i, _mm256_permute_ps(_mm256_loadu_ps(base + 2 * i), 0xB1));
      }
      for (; i < n_swap; ++i) {
        swapped[2 * i] = base[2 * i + 1];
        swapped[2 * i + 1] = base[2 * i];
      }
      for (std::size_t k = 0; k < n_k; ++k) {
        // conj(ref[k]) broadcast: negating the float imag flips exactly the
        // sign bit, matching std::conj.
        const __m256 cr = _mm256_set1_ps(ref[k0 + k].real());
        const __m256 ci = _mm256_set1_ps(-ref[k0 + k].imag());
        const float* p = base + 2 * k;
        const float* q = swapped + 2 * k;
        acc0 = _mm256_add_ps(acc0, cmul_bcast4(cr, ci, _mm256_loadu_ps(p), _mm256_loadu_ps(q)));
        acc1 = _mm256_add_ps(acc1, cmul_bcast4(cr, ci, _mm256_loadu_ps(p + 8),
                                               _mm256_loadu_ps(q + 8)));
        acc2 = _mm256_add_ps(acc2, cmul_bcast4(cr, ci, _mm256_loadu_ps(p + 16),
                                               _mm256_loadu_ps(q + 16)));
        acc3 = _mm256_add_ps(acc3, cmul_bcast4(cr, ci, _mm256_loadu_ps(p + 24),
                                               _mm256_loadu_ps(q + 24)));
        acc4 = _mm256_add_ps(acc4, cmul_bcast4(cr, ci, _mm256_loadu_ps(p + 32),
                                               _mm256_loadu_ps(q + 32)));
        acc5 = _mm256_add_ps(acc5, cmul_bcast4(cr, ci, _mm256_loadu_ps(p + 40),
                                               _mm256_loadu_ps(q + 40)));
        acc6 = _mm256_add_ps(acc6, cmul_bcast4(cr, ci, _mm256_loadu_ps(p + 48),
                                               _mm256_loadu_ps(q + 48)));
        acc7 = _mm256_add_ps(acc7, cmul_bcast4(cr, ci, _mm256_loadu_ps(p + 56),
                                               _mm256_loadu_ps(q + 56)));
      }
    }
    float* o = fp(out + l);
    _mm256_storeu_ps(o, acc0);
    _mm256_storeu_ps(o + 8, acc1);
    _mm256_storeu_ps(o + 16, acc2);
    _mm256_storeu_ps(o + 24, acc3);
    _mm256_storeu_ps(o + 32, acc4);
    _mm256_storeu_ps(o + 40, acc5);
    _mm256_storeu_ps(o + 48, acc6);
    _mm256_storeu_ps(o + 56, acc7);
  }
  // The rest in groups of eight lags, two accumulators. The last group may
  // hold fewer: its loads and stores are masked to its lags, so it reads
  // no sample past the n_lags - 1 + n_ref that x holds, and its lanes sum
  // in the same order as full ones (a masked lane reads zeros and is
  // never stored).
  const __m256i lane0 = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
  const __m256i lane1 = _mm256_setr_epi32(4, 4, 5, 5, 6, 6, 7, 7);
  for (; l < n_lags; l += 8) {
    const __m256i live = _mm256_set1_epi32(static_cast<int>(std::min<std::size_t>(8, n_lags - l)));
    const __m256i m0 = _mm256_cmpgt_epi32(live, lane0);
    const __m256i m1 = _mm256_cmpgt_epi32(live, lane1);
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    const float* base = fp(x + l);
    for (std::size_t k = 0; k < n_ref; ++k) {
      const __m256 cr = _mm256_set1_ps(ref[k].real());
      const __m256 ci = _mm256_set1_ps(-ref[k].imag());
      const float* p = base + 2 * k;
      acc0 = _mm256_add_ps(acc0, cmul_bcast4(cr, ci, _mm256_maskload_ps(p, m0)));
      acc1 = _mm256_add_ps(acc1, cmul_bcast4(cr, ci, _mm256_maskload_ps(p + 8, m1)));
    }
    _mm256_maskstore_ps(fp(out + l), m0, acc0);
    _mm256_maskstore_ps(fp(out + l + 4), m1, acc1);
  }
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
// The same butterflies as scalar::bit_reverse then scalar::fft_stages,
// scheduled for registers and the cache. Every butterfly computes
// t = w * b with cmul_bcast4's products and single add/sub, then a + t
// and a - t; where both outputs share a vector, a - t is taken as
// a + (t ^ sign), which IEEE defines as the same operation (subtraction
// is addition of the negation, and negation flips only the sign bit).
// Which butterflies share a pass, a register or a cache block changes
// no value.

namespace {

constexpr int kSign = static_cast<int>(0x80000000U);

/// Points per L1 block: stages of half < kFftBlock run block by block
/// (a 16 KB block and its twiddles stay in a 48 KB L1 data cache).
constexpr std::size_t kFftBlock = 2048;

/// Every sign bit when inverse: xor-ing a duplicated imaginary twiddle
/// vector with this is conj(w) per cf.
inline __m256 conj_mask(bool inverse) {
  return inverse ? _mm256_castsi256_ps(_mm256_set1_epi32(kSign)) : _mm256_setzero_ps();
}

/// Twiddles k .. k + 3 of a stage of half h, from its duplicated table.
struct Twiddles4 {
  __m256 re;
  __m256 im;
};

inline Twiddles4 load_twiddles(const float* table, std::size_t h, std::size_t k, __m256 conj) {
  return {_mm256_loadu_ps(table + 2 * k),
          _mm256_xor_ps(_mm256_loadu_ps(table + 2 * h + 2 * k), conj)};
}

/// One twiddle of a stage table in every lane.
inline Twiddles4 broadcast_twiddle(const float* table, std::size_t h, std::size_t k,
                                   __m256 conj) {
  return {_mm256_set1_ps(table[2 * k]), _mm256_xor_ps(_mm256_set1_ps(table[2 * h + 2 * k]), conj)};
}

inline __m256 cmul_tw(const Twiddles4& w, __m256 z) { return cmul_bcast4(w.re, w.im, z); }

inline __m256d as_pd(__m256 v) { return _mm256_castps_pd(v); }

/// The half = 1 and half = 2 stages of four bit-reversed groups, read
/// from natural order at r = `first`. Lane i of a, b, c, d holds
/// x[r + i + j n/4] for j = 0, 1, 2, 3; in bit-reversed order these are
/// the group [x[r+i], x[r+i+n/2], x[r+i+n/4], x[r+i+3n/4]] that starts at
/// 4 rev(r + i). The four outputs of that group come back transposed, one
/// vector per lane, in o[i].
inline void first_two_cell(const cf* x, std::size_t first, std::size_t q, const Twiddles4& w1,
                           const Twiddles4& w20, const Twiddles4& w21, __m256 (&o)[4]) {
  const cf* src = x + first;
  const __m256 a = _mm256_loadu_ps(fp(src));
  const __m256 b = _mm256_loadu_ps(fp(src + q));
  const __m256 c = _mm256_loadu_ps(fp(src + 2 * q));
  const __m256 d = _mm256_loadu_ps(fp(src + 3 * q));
  // half = 1: (a, c) and (b, d) with tw_1[0].
  const __m256 t1 = cmul_tw(w1, c);
  const __m256 t2 = cmul_tw(w1, d);
  const __m256 p = _mm256_add_ps(a, t1);
  const __m256 r = _mm256_sub_ps(a, t1);
  const __m256 u = _mm256_add_ps(b, t2);
  const __m256 v = _mm256_sub_ps(b, t2);
  // half = 2: (p, u) with tw_2[0], (r, v) with tw_2[1].
  const __m256 t3 = cmul_tw(w20, u);
  const __m256 t4 = cmul_tw(w21, v);
  const __m256 y0 = _mm256_add_ps(p, t3);
  const __m256 y1 = _mm256_add_ps(r, t4);
  const __m256 y2 = _mm256_sub_ps(p, t3);
  const __m256 y3 = _mm256_sub_ps(r, t4);
  // Transpose the 4 x 4 cf block: lane i's [y0 y1 y2 y3].
  const __m256d l0 = _mm256_unpacklo_pd(as_pd(y0), as_pd(y1));  // lanes 0, 2 of y0, y1
  const __m256d h0 = _mm256_unpackhi_pd(as_pd(y0), as_pd(y1));  // lanes 1, 3
  const __m256d l1 = _mm256_unpacklo_pd(as_pd(y2), as_pd(y3));
  const __m256d h1 = _mm256_unpackhi_pd(as_pd(y2), as_pd(y3));
  o[0] = _mm256_castpd_ps(_mm256_permute2f128_pd(l0, l1, 0x20));
  o[1] = _mm256_castpd_ps(_mm256_permute2f128_pd(h0, h1, 0x20));
  o[2] = _mm256_castpd_ps(_mm256_permute2f128_pd(l0, l1, 0x31));
  o[3] = _mm256_castpd_ps(_mm256_permute2f128_pd(h0, h1, 0x31));
}

/// Lane i's group belongs at 4 rev(r + i) = 4 rev(r) + rev2(i) n/4.
inline void store_cell(cf* dst, std::size_t q, const __m256 (&o)[4]) {
  _mm256_storeu_ps(fp(dst), o[0]);
  _mm256_storeu_ps(fp(dst + 2 * q), o[1]);
  _mm256_storeu_ps(fp(dst + q), o[2]);
  _mm256_storeu_ps(fp(dst + 3 * q), o[3]);
}

/// The bit reversal fused into stages half = 1 and 2, n >= 16, in place.
/// The cell {r + i + j n/4 : i, j < 4} (r = 4a) lands on the cell of
/// r' = 4 rev(a), and r' lands on r, so each cell is read together with
/// its partner and the two are written over each other.
void reverse_first_two(cf* x, std::size_t n, const float* const* tw, __m256 conj) {
  const std::size_t q = n / 4;
  const Twiddles4 w1 = broadcast_twiddle(tw[0], 1, 0, conj);
  const Twiddles4 w20 = broadcast_twiddle(tw[1], 2, 0, conj);
  const Twiddles4 w21 = broadcast_twiddle(tw[1], 2, 1, conj);
  const int bits = std::countr_zero(n) - 4;
  for (std::size_t a = 0; a < n / 16; ++a) {
    const std::size_t partner = scalar::reverse_bits(a, bits);
    if (partner < a) continue;
    __m256 oa[4];
    first_two_cell(x, 4 * a, q, w1, w20, w21, oa);
    if (partner == a) {
      store_cell(x + 4 * a, q, oa);
      continue;
    }
    __m256 ob[4];
    first_two_cell(x, 4 * partner, q, w1, w20, w21, ob);
    store_cell(x + 4 * partner, q, oa);
    store_cell(x + 4 * a, q, ob);
  }
}

/// One stage of half h >= 4 over x[0, n), four butterflies per vector.
void radix2_stage(cf* x, std::size_t n, const float* table, std::size_t h, __m256 conj) {
  for (std::size_t s = 0; s < n; s += 2 * h) {
    for (std::size_t k = 0; k < h; k += 4) {
      cf* p = x + s + k;
      const __m256 t = cmul_tw(load_twiddles(table, h, k, conj), _mm256_loadu_ps(fp(p + h)));
      const __m256 a = _mm256_loadu_ps(fp(p));
      _mm256_storeu_ps(fp(p), _mm256_add_ps(a, t));
      _mm256_storeu_ps(fp(p + h), _mm256_sub_ps(a, t));
    }
  }
}

/// Stages h and 2h (h >= 4) over x[0, n) in one pass: for each k, the
/// four samples k, k + h, k + 2h, k + 3h of a 4h block go through both
/// butterfly levels in registers. Stage h pairs (k, k+h) and (k+2h, k+3h)
/// with tw_h[k]; stage 2h pairs (k, k+2h) with tw_2h[k] and (k+h, k+3h)
/// with tw_2h[k+h].
void radix4_pass(cf* x, std::size_t n, const float* table_h, const float* table_2h,
                 std::size_t h, __m256 conj) {
  for (std::size_t s = 0; s < n; s += 4 * h) {
    for (std::size_t k = 0; k < h; k += 4) {
      cf* p = x + s + k;
      const Twiddles4 w1 = load_twiddles(table_h, h, k, conj);
      const Twiddles4 w2 = load_twiddles(table_2h, 2 * h, k, conj);
      const Twiddles4 w3 = load_twiddles(table_2h, 2 * h, k + h, conj);
      const __m256 a = _mm256_loadu_ps(fp(p));
      const __m256 b = _mm256_loadu_ps(fp(p + h));
      const __m256 c = _mm256_loadu_ps(fp(p + 2 * h));
      const __m256 d = _mm256_loadu_ps(fp(p + 3 * h));
      const __m256 t1 = cmul_tw(w1, b);
      const __m256 t2 = cmul_tw(w1, d);
      const __m256 a1 = _mm256_add_ps(a, t1);
      const __m256 b1 = _mm256_sub_ps(a, t1);
      const __m256 c1 = _mm256_add_ps(c, t2);
      const __m256 d1 = _mm256_sub_ps(c, t2);
      const __m256 t3 = cmul_tw(w2, c1);
      const __m256 t4 = cmul_tw(w3, d1);
      _mm256_storeu_ps(fp(p), _mm256_add_ps(a1, t3));
      _mm256_storeu_ps(fp(p + h), _mm256_add_ps(b1, t4));
      _mm256_storeu_ps(fp(p + 2 * h), _mm256_sub_ps(a1, t3));
      _mm256_storeu_ps(fp(p + 3 * h), _mm256_sub_ps(b1, t4));
    }
  }
}

/// Stages first, first + 1, ..., last - 1 (stage s has half 2^s >= 4)
/// over x[0, n): an odd count runs its first stage alone, the rest two
/// per pass.
void run_stages(cf* x, std::size_t n, const float* const* tw, int first, int last,
                __m256 conj) {
  int s = first;
  if ((last - first) % 2 == 1) {
    radix2_stage(x, n, tw[s], std::size_t{1} << s, conj);
    ++s;
  }
  for (; s < last; s += 2) radix4_pass(x, n, tw[s], tw[s + 1], std::size_t{1} << s, conj);
}

}  // namespace

void fft(cf* x, std::size_t n, const float* const* tw, bool inverse) {
  BHSS_REQUIRE(x != nullptr && tw != nullptr, "fft: null buffer");
  if (n < 16) {
    scalar::fft(x, n, tw, inverse);
    return;
  }
  const __m256 conj = conj_mask(inverse);
  reverse_first_two(x, n, tw, conj);
  // Stages half = 4 .. block / 2 block by block, then the rest over the
  // whole array.
  const std::size_t block = std::min(n, kFftBlock);
  const int block_stages = std::countr_zero(block);
  for (std::size_t b = 0; b < n; b += block) run_stages(x + b, block, tw, 2, block_stages, conj);
  run_stages(x, n, tw, block_stages, std::countr_zero(n), conj);
  // Return with clean upper halves: a caller in baseline code that runs
  // SSE instructions next would otherwise pay the transition on each.
  _mm256_zeroupper();
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

// ------------------------------------------------ libm replicas
//
// detail::sincos and detail::log four lanes at a time, every step the
// reference's double operation in a __m256d lane. A group holding a lane
// the fast path does not cover (|x| >= 120 or non-finite for sincos,
// anything but a positive normal float for log) runs the reference.

namespace {

inline __m128i splat4(std::uint32_t v) { return _mm_set1_epi32(static_cast<int>(v)); }

/// Bit 1 of each quadrant (n + 1 for the argument's sign, n for the
/// cosine's) moved to a double lane's sign bit.
inline __m256d sign_of_bit1(__m256i n) {
  return _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_and_si256(n, _mm256_set1_epi64x(2)), 62));
}

/// cf{cosf, sinf} of four floats with |x| < 120.
inline __m256 sincos4(__m128 xf) {
  const __m128i abits = _mm_and_si128(_mm_castps_si128(xf), splat4(0x7fffffffU));
  const __m256d x = _mm256_cvtps_pd(xf);
  // detail::sincos_reduce; |x| < 0.75 gets n = 0 and r = x exactly.
  const __m128i n = _mm_srai_epi32(
      _mm_add_epi32(_mm256_cvttpd_epi32(_mm256_mul_pd(x, _mm256_set1_pd(detail::kHalfPiInv))),
                    splat4(0x800000)),
      24);
  const __m256d nd = _mm256_cvtepi32_pd(n);
  const __m256d r =
      _mm256_sub_pd(_mm256_sub_pd(x, _mm256_mul_pd(nd, _mm256_set1_pd(detail::kHalfPiHi))),
                    _mm256_mul_pd(nd, _mm256_set1_pd(detail::kHalfPiLo)));
  const __m256i n64 = _mm256_cvtepi32_epi64(n);
  const __m256d xs = _mm256_xor_pd(r, sign_of_bit1(_mm256_add_epi64(n64, _mm256_set1_epi64x(1))));
  const __m256d x2 = _mm256_mul_pd(r, r);
  // detail::sin_poly(xs, x2) and detail::cos_poly(x2).
  const __m256d x3 = _mm256_mul_pd(xs, x2);
  const __m256d s1 = _mm256_add_pd(_mm256_set1_pd(detail::kS2),
                                   _mm256_mul_pd(x2, _mm256_set1_pd(detail::kS3)));
  const __m256d x5 = _mm256_mul_pd(x3, x2);
  const __m256d sv = _mm256_add_pd(xs, _mm256_mul_pd(x3, _mm256_set1_pd(detail::kS1)));
  const __m256d sp = _mm256_add_pd(sv, _mm256_mul_pd(x5, s1));
  const __m256d x4 = _mm256_mul_pd(x2, x2);
  const __m256d c2 = _mm256_add_pd(_mm256_set1_pd(detail::kC3),
                                   _mm256_mul_pd(x2, _mm256_set1_pd(detail::kC4)));
  const __m256d c1 = _mm256_add_pd(_mm256_set1_pd(detail::kC0),
                                   _mm256_mul_pd(x2, _mm256_set1_pd(detail::kC1)));
  const __m256d x6 = _mm256_mul_pd(x4, x2);
  const __m256d cv = _mm256_add_pd(c1, _mm256_mul_pd(x4, _mm256_set1_pd(detail::kC2)));
  const __m256d cp = _mm256_xor_pd(_mm256_add_pd(cv, _mm256_mul_pd(x6, c2)), sign_of_bit1(n64));
  // Odd quadrants swap the two; |x| < 2^-12 gives (1, x).
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256d odd = _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(n64, one), one));
  const __m256d tiny =
      _mm256_castsi256_pd(_mm256_cvtepi32_epi64(_mm_cmplt_epi32(abits, splat4(detail::kTinyBits))));
  const __m256d sn = _mm256_blendv_pd(_mm256_blendv_pd(sp, cp, odd), x, tiny);
  const __m256d cs = _mm256_blendv_pd(_mm256_blendv_pd(cp, sp, odd), _mm256_set1_pd(1.0), tiny);
  const __m128 sf = _mm256_cvtpd_ps(sn);
  const __m128 cf4 = _mm256_cvtpd_ps(cs);
  return _mm256_set_m128(_mm_unpackhi_ps(cf4, sf), _mm_unpacklo_ps(cf4, sf));
}

/// logf of four positive normal floats (detail::log_normal lane by lane).
inline __m128 log4(__m128i ix) {
  const __m128i tmp = _mm_sub_epi32(ix, splat4(detail::kLogOff));
  const __m128i i = _mm_and_si128(_mm_srli_epi32(tmp, 19), splat4(15));
  const __m128i k = _mm_srai_epi32(tmp, 23);
  const __m128i iz = _mm_sub_epi32(ix, _mm_and_si128(tmp, splat4(0xff800000U)));
  const __m256d z = _mm256_cvtps_pd(_mm_castsi128_ps(iz));
  // The masked gather with a zero source: the unmasked form reads an
  // undefined source, which GCC 12 reports as maybe-uninitialized.
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d invc =
      _mm256_mask_i32gather_pd(_mm256_setzero_pd(), detail::kLogInvc.data(), i, all, 8);
  const __m256d logc =
      _mm256_mask_i32gather_pd(_mm256_setzero_pd(), detail::kLogLogc.data(), i, all, 8);
  const __m256d r = _mm256_sub_pd(_mm256_mul_pd(z, invc), _mm256_set1_pd(1.0));
  const __m256d y0 =
      _mm256_add_pd(logc, _mm256_mul_pd(_mm256_cvtepi32_pd(k), _mm256_set1_pd(detail::kLn2)));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(detail::kLogA1), r),
                            _mm256_set1_pd(detail::kLogA2));
  y = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(detail::kLogA0), r2), y);
  y = _mm256_add_pd(_mm256_mul_pd(y, r2), _mm256_add_pd(y0, r));
  return _mm256_cvtpd_ps(y);
}

}  // namespace

void sincos_f32(const float* x, cf* out, std::size_t n) {
  BHSS_REQUIRE(x != nullptr && out != nullptr, "sincos_f32: null buffer");
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 xf = _mm_loadu_ps(x + i);
    const __m128i abits = _mm_and_si128(_mm_castps_si128(xf), splat4(0x7fffffffU));
    if (_mm_movemask_epi8(_mm_cmpgt_epi32(abits, splat4(detail::kLargeBits - 1))) != 0) {
      // The reference is baseline (SSE) code: clear the upper halves
      // first, or every SSE instruction in it pays the AVX transition.
      _mm256_zeroupper();
      scalar::sincos_f32(x + i, out + i, 4);
    } else {
      _mm256_storeu_ps(fp(out + i), sincos4(xf));
    }
  }
  scalar::sincos_f32(x + i, out + i, n - i);
}

void log_f32(const float* x, float* out, std::size_t n) {
  BHSS_REQUIRE(x != nullptr && out != nullptr, "log_f32: null buffer");
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i ix = _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    // Positive normal: 0x00800000 <= bits < 0x7f800000 as signed integers.
    const __m128i special = _mm_or_si128(_mm_cmplt_epi32(ix, splat4(0x00800000)),
                                         _mm_cmpgt_epi32(ix, splat4(detail::kInfBits - 1)));
    if (_mm_movemask_epi8(special) != 0) {
      _mm256_zeroupper();
      scalar::log_f32(x + i, out + i, 4);
    } else {
      _mm_storeu_ps(out + i, log4(ix));
    }
  }
  scalar::log_f32(x + i, out + i, n - i);
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
    log_f32(r2s, logs, vec);
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

#pragma GCC pop_options
