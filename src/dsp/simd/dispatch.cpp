// Runtime ISA dispatch for the simd.hpp kernels.
//
// x86-64: the AVX2 TU is compiled (with -mavx2) only when the toolchain
// supports it and BHSS_SIMD is ON; whether it is *entered* is decided once
// at startup from __builtin_cpu_supports("avx2"). aarch64: NEON is part of
// the baseline ISA, so the choice is purely compile-time. Everything else
// falls back to the scalar reference.

#include "dsp/simd/scalar_kernels.hpp"
#include "dsp/simd/simd.hpp"

namespace bhss::dsp::simd {

#if defined(BHSS_SIMD_AVX2)

namespace avx2 {
void fir_filter_block(const cf*, std::size_t, const cf*, cf*, std::size_t);
void fir_decimate_real(const float*, std::size_t, const cf*, cf*, std::size_t, std::size_t);
void correlate_lags(const cf*, const cf*, std::size_t, cf*, std::size_t);
void despread_correlate16(const cf*, std::size_t, const float*, const float*, const float*, cf*);
void fft_stages(cf*, std::size_t, const cf*, bool);
void cmul_inplace(cf*, const cf*, std::size_t);
void scale_inplace(cf*, float, std::size_t);
void window_apply(const cf*, const float*, cf*, std::size_t);
void scale_pulse(float, float, const float*, cf*, std::size_t);
void gaussian_cf(Mt19937_64&, cf*, std::size_t);
}  // namespace avx2

namespace {
const bool kUseAvx2 = __builtin_cpu_supports("avx2") != 0;
}  // namespace

const char* active_isa() noexcept { return kUseAvx2 ? "avx2" : "scalar"; }
bool vectorized() noexcept { return kUseAvx2; }

void fir_filter_block(const cf* taps, std::size_t n_taps, const cf* x, cf* out,
                      std::size_t n_out) {
  if (kUseAvx2) {
    avx2::fir_filter_block(taps, n_taps, x, out, n_out);
  } else {
    detail::fir_filter_block_scalar(taps, n_taps, x, out, n_out);
  }
}

void fir_decimate_real(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                       std::size_t n_out, std::size_t stride) {
  if (kUseAvx2) {
    avx2::fir_decimate_real(taps, n_taps, x, out, n_out, stride);
  } else {
    detail::fir_decimate_real_scalar(taps, n_taps, x, out, n_out, stride);
  }
}

void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out, std::size_t n_lags) {
  if (kUseAvx2) {
    avx2::correlate_lags(x, ref, n_ref, out, n_lags);
  } else {
    detail::correlate_lags_scalar(x, ref, n_ref, out, n_lags);
  }
}

void despread_correlate16(const cf* pairs, std::size_t n_pairs, const float* se, const float* so,
                          const float* cols, cf* out) {
  if (kUseAvx2) {
    avx2::despread_correlate16(pairs, n_pairs, se, so, cols, out);
  } else {
    detail::despread_correlate16_scalar(pairs, n_pairs, se, so, cols, out);
  }
}

void fft_stages(cf* x, std::size_t n, const cf* tw, bool inverse) {
  if (kUseAvx2) {
    avx2::fft_stages(x, n, tw, inverse);
  } else {
    detail::fft_stages_scalar(x, n, tw, inverse);
  }
}

void cmul_inplace(cf* a, const cf* b, std::size_t n) {
  if (kUseAvx2) {
    avx2::cmul_inplace(a, b, n);
  } else {
    detail::cmul_inplace_scalar(a, b, n);
  }
}

void scale_inplace(cf* x, float s, std::size_t n) {
  if (kUseAvx2) {
    avx2::scale_inplace(x, s, n);
  } else {
    detail::scale_inplace_scalar(x, s, n);
  }
}

void window_apply(const cf* x, const float* w, cf* out, std::size_t n) {
  if (kUseAvx2) {
    avx2::window_apply(x, w, out, n);
  } else {
    detail::window_apply_scalar(x, w, out, n);
  }
}

void scale_pulse(float a, float b, const float* pulse, cf* out, std::size_t n) {
  if (kUseAvx2) {
    avx2::scale_pulse(a, b, pulse, out, n);
  } else {
    detail::scale_pulse_scalar(a, b, pulse, out, n);
  }
}

void gaussian_cf(Mt19937_64& eng, cf* out, std::size_t n) {
  if (kUseAvx2) {
    avx2::gaussian_cf(eng, out, n);
  } else {
    detail::gaussian_cf_scalar(eng, out, n);
  }
}

#elif defined(BHSS_SIMD_NEON)

namespace neon {
void fir_filter_block(const cf*, std::size_t, const cf*, cf*, std::size_t);
void fir_decimate_real(const float*, std::size_t, const cf*, cf*, std::size_t, std::size_t);
void correlate_lags(const cf*, const cf*, std::size_t, cf*, std::size_t);
void despread_correlate16(const cf*, std::size_t, const float*, const float*, const float*, cf*);
void fft_stages(cf*, std::size_t, const cf*, bool);
void cmul_inplace(cf*, const cf*, std::size_t);
void scale_inplace(cf*, float, std::size_t);
void window_apply(const cf*, const float*, cf*, std::size_t);
void scale_pulse(float, float, const float*, cf*, std::size_t);
}  // namespace neon

const char* active_isa() noexcept { return "neon"; }
bool vectorized() noexcept { return true; }

void fir_filter_block(const cf* taps, std::size_t n_taps, const cf* x, cf* out,
                      std::size_t n_out) {
  neon::fir_filter_block(taps, n_taps, x, out, n_out);
}

void fir_decimate_real(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                       std::size_t n_out, std::size_t stride) {
  neon::fir_decimate_real(taps, n_taps, x, out, n_out, stride);
}

void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out, std::size_t n_lags) {
  neon::correlate_lags(x, ref, n_ref, out, n_lags);
}

void despread_correlate16(const cf* pairs, std::size_t n_pairs, const float* se, const float* so,
                          const float* cols, cf* out) {
  neon::despread_correlate16(pairs, n_pairs, se, so, cols, out);
}

void fft_stages(cf* x, std::size_t n, const cf* tw, bool inverse) {
  neon::fft_stages(x, n, tw, inverse);
}

void cmul_inplace(cf* a, const cf* b, std::size_t n) { neon::cmul_inplace(a, b, n); }

void scale_inplace(cf* x, float s, std::size_t n) { neon::scale_inplace(x, s, n); }

void window_apply(const cf* x, const float* w, cf* out, std::size_t n) {
  neon::window_apply(x, w, out, n);
}

void scale_pulse(float a, float b, const float* pulse, cf* out, std::size_t n) {
  neon::scale_pulse(a, b, pulse, out, n);
}

// No NEON Gaussian kernel yet: the scalar reference runs.
void gaussian_cf(Mt19937_64& eng, cf* out, std::size_t n) {
  detail::gaussian_cf_scalar(eng, out, n);
}

#else  // scalar-only build

const char* active_isa() noexcept { return "scalar"; }
bool vectorized() noexcept { return false; }

void fir_filter_block(const cf* taps, std::size_t n_taps, const cf* x, cf* out,
                      std::size_t n_out) {
  detail::fir_filter_block_scalar(taps, n_taps, x, out, n_out);
}

void fir_decimate_real(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                       std::size_t n_out, std::size_t stride) {
  detail::fir_decimate_real_scalar(taps, n_taps, x, out, n_out, stride);
}

void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out, std::size_t n_lags) {
  detail::correlate_lags_scalar(x, ref, n_ref, out, n_lags);
}

void despread_correlate16(const cf* pairs, std::size_t n_pairs, const float* se, const float* so,
                          const float* cols, cf* out) {
  detail::despread_correlate16_scalar(pairs, n_pairs, se, so, cols, out);
}

void fft_stages(cf* x, std::size_t n, const cf* tw, bool inverse) {
  detail::fft_stages_scalar(x, n, tw, inverse);
}

void cmul_inplace(cf* a, const cf* b, std::size_t n) { detail::cmul_inplace_scalar(a, b, n); }

void scale_inplace(cf* x, float s, std::size_t n) { detail::scale_inplace_scalar(x, s, n); }

void window_apply(const cf* x, const float* w, cf* out, std::size_t n) {
  detail::window_apply_scalar(x, w, out, n);
}

void scale_pulse(float a, float b, const float* pulse, cf* out, std::size_t n) {
  detail::scale_pulse_scalar(a, b, pulse, out, n);
}

void gaussian_cf(Mt19937_64& eng, cf* out, std::size_t n) {
  detail::gaussian_cf_scalar(eng, out, n);
}

#endif

}  // namespace bhss::dsp::simd
