// Runtime ISA dispatch for the simd.hpp kernels: one dispatcher per
// kernel, serving every build. The AVX2 unit is compiled only on x86-64
// when the toolchain supports it and BHSS_SIMD is ON, and the AVX-512
// unit (correlate_lags and gaussian_cf only) where the toolchain also
// supports AVX-512F and DQ; whether either is *entered* is decided once
// at startup from __builtin_cpu_supports (tiers.hpp). A build without a
// unit names the next tier down in its place and never takes that
// branch.

#include "dsp/simd/scalar_kernels.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/simd/tiers.hpp"

namespace bhss::dsp::simd {

#if defined(BHSS_SIMD_AVX2)
const bool kUseAvx2 = avx2_runs();
#else
namespace avx2 = scalar;
constexpr bool kUseAvx2 = false;
#endif

#if defined(BHSS_SIMD_AVX512)
const bool kUseAvx512 = avx512_runs();
#else
namespace avx512 = avx2;
constexpr bool kUseAvx512 = false;
#endif

const char* active_isa() noexcept { return kUseAvx2 ? "avx2" : "scalar"; }

const char* wide_isa() noexcept { return kUseAvx512 ? "avx512" : active_isa(); }

void fir_decimate_real(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                       std::size_t n_out, std::size_t stride) {
  if (kUseAvx2) {
    avx2::fir_decimate_real(taps, n_taps, x, out, n_out, stride);
  } else {
    scalar::fir_decimate_real(taps, n_taps, x, out, n_out, stride);
  }
}

void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out, std::size_t n_lags) {
  if (kUseAvx512) {
    avx512::correlate_lags(x, ref, n_ref, out, n_lags);
  } else if (kUseAvx2) {
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

void fft(cf* x, std::size_t n, const float* const* tw, bool inverse) {
  if (kUseAvx2) {
    avx2::fft(x, n, tw, inverse);
  } else {
    scalar::fft(x, n, tw, inverse);
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
  if (kUseAvx512) {
    avx512::gaussian_cf(eng, out, n);
  } else if (kUseAvx2) {
    avx2::gaussian_cf(eng, out, n);
  } else {
    scalar::gaussian_cf(eng, out, n);
  }
}

void sincos_f32(const float* x, cf* out, std::size_t n) {
  if (kUseAvx2) {
    avx2::sincos_f32(x, out, n);
  } else {
    scalar::sincos_f32(x, out, n);
  }
}

void log_f32(const float* x, float* out, std::size_t n) {
  if (kUseAvx2) {
    avx2::log_f32(x, out, n);
  } else {
    scalar::log_f32(x, out, n);
  }
}

}  // namespace bhss::dsp::simd
