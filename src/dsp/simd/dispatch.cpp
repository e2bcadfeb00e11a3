// Runtime ISA dispatch for the simd.hpp kernels: one dispatcher per
// kernel, serving every build. The AVX2 TU is compiled (with -mavx2) only
// on x86-64 when the toolchain supports it and BHSS_SIMD is ON; whether
// it is *entered* is decided once at startup from
// __builtin_cpu_supports("avx2"). Every other build names the scalar
// reference `avx2` and never takes that branch.

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

const bool kUseAvx2 = __builtin_cpu_supports("avx2") != 0;

#else

namespace avx2 = scalar;
constexpr bool kUseAvx2 = false;

#endif

const char* active_isa() noexcept { return kUseAvx2 ? "avx2" : "scalar"; }

void fir_filter_block(const cf* taps, std::size_t n_taps, const cf* x, cf* out,
                      std::size_t n_out) {
  if (kUseAvx2) {
    avx2::fir_filter_block(taps, n_taps, x, out, n_out);
  } else {
    scalar::fir_filter_block(taps, n_taps, x, out, n_out);
  }
}

void fir_decimate_real(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                       std::size_t n_out, std::size_t stride) {
  if (kUseAvx2) {
    avx2::fir_decimate_real(taps, n_taps, x, out, n_out, stride);
  } else {
    scalar::fir_decimate_real(taps, n_taps, x, out, n_out, stride);
  }
}

void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out, std::size_t n_lags) {
  if (kUseAvx2) {
    avx2::correlate_lags(x, ref, n_ref, out, n_lags);
  } else {
    scalar::correlate_lags(x, ref, n_ref, out, n_lags);
  }
}

void despread_correlate16(const cf* pairs, std::size_t n_pairs, const float* se, const float* so,
                          const float* cols, cf* out) {
  if (kUseAvx2) {
    avx2::despread_correlate16(pairs, n_pairs, se, so, cols, out);
  } else {
    scalar::despread_correlate16(pairs, n_pairs, se, so, cols, out);
  }
}

void fft_stages(cf* x, std::size_t n, const cf* tw, bool inverse) {
  if (kUseAvx2) {
    avx2::fft_stages(x, n, tw, inverse);
  } else {
    scalar::fft_stages(x, n, tw, inverse);
  }
}

void cmul_inplace(cf* a, const cf* b, std::size_t n) {
  if (kUseAvx2) {
    avx2::cmul_inplace(a, b, n);
  } else {
    scalar::cmul_inplace(a, b, n);
  }
}

void scale_inplace(cf* x, float s, std::size_t n) {
  if (kUseAvx2) {
    avx2::scale_inplace(x, s, n);
  } else {
    scalar::scale_inplace(x, s, n);
  }
}

void window_apply(const cf* x, const float* w, cf* out, std::size_t n) {
  if (kUseAvx2) {
    avx2::window_apply(x, w, out, n);
  } else {
    scalar::window_apply(x, w, out, n);
  }
}

void scale_pulse(float a, float b, const float* pulse, cf* out, std::size_t n) {
  if (kUseAvx2) {
    avx2::scale_pulse(a, b, pulse, out, n);
  } else {
    scalar::scale_pulse(a, b, pulse, out, n);
  }
}

void gaussian_cf(Mt19937_64& eng, cf* out, std::size_t n) {
  if (kUseAvx2) {
    avx2::gaussian_cf(eng, out, n);
  } else {
    scalar::gaussian_cf(eng, out, n);
  }
}

}  // namespace bhss::dsp::simd
