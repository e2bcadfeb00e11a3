// NEON implementations of the simd.hpp kernels (aarch64; NEON is baseline
// there, so this TU needs no extra target flags). Same bit-identity rules
// as avx2.cpp: no FMA (vfmaq would round once where the scalar reference
// rounds twice), interleaved complex layout (two cf per float32x4_t),
// reduction index sequential per output. Tails reuse the shared scalar
// bodies.

#if defined(BHSS_SIMD_NEON) && defined(__aarch64__)

#include <arm_neon.h>

#include "dsp/simd/scalar_kernels.hpp"
#include "dsp/simd/simd.hpp"

namespace bhss::dsp::simd::neon {

namespace {

inline const float* fp(const cf* p) { return reinterpret_cast<const float*>(p); }
inline float* fp(cf* p) { return reinterpret_cast<float*>(p); }

/// Complex product of two (w, z) pairs: (wr*zr - wi*zi, wr*zi + wi*zr).
inline float32x4_t cmul2(float32x4_t w, float32x4_t z) {
  const float32x4_t wr = vtrn1q_f32(w, w);  // [wr0 wr0 wr1 wr1]
  const float32x4_t wi = vtrn2q_f32(w, w);  // [wi0 wi0 wi1 wi1]
  const float32x4_t zs = vrev64q_f32(z);    // [zi0 zr0 zi1 zr1]
  // addsub: even lanes subtract, odd lanes add.
  const float32x4_t prod_i = vmulq_f32(wi, zs);
  const float32x4_t neg_even = vsetq_lane_f32(-vgetq_lane_f32(prod_i, 0),
                                              vsetq_lane_f32(-vgetq_lane_f32(prod_i, 2),
                                                             prod_i, 2),
                                              0);
  return vaddq_f32(vmulq_f32(wr, z), neg_even);
}

/// Broadcast complex t = (tr, ti) times two packed cf.
inline float32x4_t cmul_bcast2(float32x4_t tr, float32x4_t ti_negeven, float32x4_t z) {
  // ti_negeven holds [-ti ti -ti ti] so a plain multiply-add yields the
  // addsub pattern: even lanes tr*zr - ti*zi, odd lanes tr*zi + ti*zr.
  const float32x4_t zs = vrev64q_f32(z);
  return vaddq_f32(vmulq_f32(tr, z), vmulq_f32(ti_negeven, zs));
}

inline float32x4_t bcast_negeven(float v) {
  const float32x4_t init = vdupq_n_f32(v);
  return vsetq_lane_f32(-v, vsetq_lane_f32(-v, init, 0), 2);
}

}  // namespace

void fir_filter_block(const cf* taps, std::size_t n_taps, const cf* x, cf* out,
                      std::size_t n_out) {
  std::size_t i = 0;
  for (; i + 4 <= n_out; i += 4) {
    float32x4_t acc0 = vdupq_n_f32(0.0F);
    float32x4_t acc1 = vdupq_n_f32(0.0F);
    const float* base = fp(x + i + n_taps - 1);
    for (std::size_t k = 0; k < n_taps; ++k) {
      const float32x4_t tr = vdupq_n_f32(taps[k].real());
      const float32x4_t tin = bcast_negeven(taps[k].imag());
      const float* p = base - 2 * k;
      acc0 = vaddq_f32(acc0, cmul_bcast2(tr, tin, vld1q_f32(p)));
      acc1 = vaddq_f32(acc1, cmul_bcast2(tr, tin, vld1q_f32(p + 4)));
    }
    vst1q_f32(fp(out + i), acc0);
    vst1q_f32(fp(out + i + 2), acc1);
  }
  detail::fir_filter_block_scalar(taps, n_taps, x + i, out + i, n_out - i);
}

void fir_decimate_real(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                       std::size_t n_out, std::size_t stride) {
  detail::fir_decimate_real_scalar(taps, n_taps, x, out, n_out, stride);
}

void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out, std::size_t n_lags) {
  std::size_t l = 0;
  for (; l + 4 <= n_lags; l += 4) {
    float32x4_t acc0 = vdupq_n_f32(0.0F);
    float32x4_t acc1 = vdupq_n_f32(0.0F);
    const float* base = fp(x + l);
    for (std::size_t k = 0; k < n_ref; ++k) {
      const float32x4_t cr = vdupq_n_f32(ref[k].real());
      const float32x4_t cin = bcast_negeven(-ref[k].imag());
      const float* p = base + 2 * k;
      acc0 = vaddq_f32(acc0, cmul_bcast2(cr, cin, vld1q_f32(p)));
      acc1 = vaddq_f32(acc1, cmul_bcast2(cr, cin, vld1q_f32(p + 4)));
    }
    vst1q_f32(fp(out + l), acc0);
    vst1q_f32(fp(out + l + 2), acc1);
  }
  detail::correlate_lags_scalar(x + l, ref, n_ref, out + l, n_lags - l);
}

void despread_correlate16(const cf* pairs, std::size_t n_pairs, const float* se, const float* so,
                          const float* cols, cf* out) {
  float32x4_t re[4] = {vdupq_n_f32(0.0F), vdupq_n_f32(0.0F), vdupq_n_f32(0.0F),
                       vdupq_n_f32(0.0F)};
  float32x4_t im[4] = {vdupq_n_f32(0.0F), vdupq_n_f32(0.0F), vdupq_n_f32(0.0F),
                       vdupq_n_f32(0.0F)};
  for (std::size_t m = 0; m < n_pairs; ++m) {
    const float32x4_t pr = vdupq_n_f32(pairs[m].real());
    const float32x4_t pi = vdupq_n_f32(pairs[m].imag());
    const float32x4_t vse = vdupq_n_f32(se[m]);
    const float32x4_t vnso = vdupq_n_f32(-so[m]);
    const float* even = cols + (2 * m) * 16;
    const float* odd = cols + (2 * m + 1) * 16;
    for (std::size_t q = 0; q < 4; ++q) {
      const float32x4_t rr = vmulq_f32(vse, vld1q_f32(even + 4 * q));
      const float32x4_t ri = vmulq_f32(vnso, vld1q_f32(odd + 4 * q));
      re[q] = vaddq_f32(re[q], vsubq_f32(vmulq_f32(pr, rr), vmulq_f32(pi, ri)));
      im[q] = vaddq_f32(im[q], vaddq_f32(vmulq_f32(pr, ri), vmulq_f32(pi, rr)));
    }
  }
  float res[16];
  float ims[16];
  for (std::size_t q = 0; q < 4; ++q) {
    vst1q_f32(res + 4 * q, re[q]);
    vst1q_f32(ims + 4 * q, im[q]);
  }
  for (std::size_t s = 0; s < 16; ++s) out[s] = cf{res[s], ims[s]};
}

namespace {

/// One stage's butterflies for one block, two at a time.
void butterflies(cf* a, cf* b, const cf* tw, std::size_t half, bool inverse) {
  if (half < 2) {
    detail::fft_butterflies_scalar(a, b, tw, half, inverse);
    return;
  }
  // conj(w): flip the sign bit of the imaginary lanes.
  const uint32x4_t conj_mask =
      inverse ? vreinterpretq_u32_u64(vdupq_n_u64(0x8000000000000000ULL)) : vdupq_n_u32(0);
  std::size_t k = 0;
  for (; k + 2 <= half; k += 2) {
    const float32x4_t w = vreinterpretq_f32_u32(
        veorq_u32(vreinterpretq_u32_f32(vld1q_f32(fp(tw + k))), conj_mask));
    const float32x4_t vb = vld1q_f32(fp(b + k));
    const float32x4_t va = vld1q_f32(fp(a + k));
    const float32x4_t t = cmul2(w, vb);
    vst1q_f32(fp(a + k), vaddq_f32(va, t));
    vst1q_f32(fp(b + k), vsubq_f32(va, t));
  }
  detail::fft_butterflies_scalar(a + k, b + k, tw + k, half - k, inverse);
}

}  // namespace

void fft_stages(cf* x, std::size_t n, const cf* tw, bool inverse) {
  BHSS_REQUIRE(x != nullptr && tw != nullptr, "fft_stages: null buffer");
  for (std::size_t half = 1; half < n; half <<= 1) {
    for (std::size_t start = 0; start < n; start += 2 * half) {
      butterflies(x + start, x + start + half, tw + half - 1, half, inverse);
    }
  }
}

void cmul_inplace(cf* a, const cf* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f32(fp(a + i), cmul2(vld1q_f32(fp(a + i)), vld1q_f32(fp(b + i))));
  }
  detail::cmul_inplace_scalar(a + i, b + i, n - i);
}

void scale_inplace(cf* x, float s, std::size_t n) {
  const float32x4_t vs = vdupq_n_f32(s);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f32(fp(x + i), vmulq_f32(vld1q_f32(fp(x + i)), vs));
  }
  detail::scale_inplace_scalar(x + i, s, n - i);
}

void window_apply(const cf* x, const float* w, cf* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t wv = vld1q_f32(w + i);
    const float32x4_t wlo = vzip1q_f32(wv, wv);  // [w0 w0 w1 w1]
    const float32x4_t whi = vzip2q_f32(wv, wv);  // [w2 w2 w3 w3]
    vst1q_f32(fp(out + i), vmulq_f32(vld1q_f32(fp(x + i)), wlo));
    vst1q_f32(fp(out + i + 2), vmulq_f32(vld1q_f32(fp(x + i + 2)), whi));
  }
  detail::window_apply_scalar(x + i, w + i, out + i, n - i);
}

void scale_pulse(float a, float b, const float* pulse, cf* out, std::size_t n) {
  float abv[4] = {a, b, a, b};
  const float32x4_t ab = vld1q_f32(abv);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const float32x4_t pv = vld1q_f32(pulse + k);
    const float32x4_t plo = vzip1q_f32(pv, pv);
    const float32x4_t phi = vzip2q_f32(pv, pv);
    vst1q_f32(fp(out + k), vmulq_f32(ab, plo));
    vst1q_f32(fp(out + k + 2), vmulq_f32(ab, phi));
  }
  detail::scale_pulse_scalar(a, b, pulse + k, out + k, n - k);
}

}  // namespace bhss::dsp::simd::neon

#endif  // BHSS_SIMD_NEON && __aarch64__
