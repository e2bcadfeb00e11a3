#pragma once

/// @file tiers.hpp
/// Internal: the entry points of the vector tiers, one namespace per
/// unit, with the signatures of the simd.hpp kernels they implement:
/// `avx2::` (avx2.cpp, every kernel) and `avx512::` (avx512.cpp, the two
/// kernels that gain from 512-bit vectors). The dispatcher (dispatch.cpp)
/// picks among them and the scalar reference; the equivalence suite and
/// perf_kernels call a tier's body directly, so a body that the dispatch
/// no longer picks on a host is still tested and timed there.
///
/// A tier's body may be called only where the build compiled its unit
/// (`BHSS_SIMD_AVX2`, `BHSS_SIMD_AVX512`) and `avx2_runs()` /
/// `avx512_runs()` hold on the CPU.

#include <cstddef>

#include "dsp/simd/simd.hpp"
#include "dsp/types.hpp"

namespace bhss::dsp::simd {

#if defined(BHSS_SIMD_AVX2)

namespace avx2 {
void fir_decimate_real(const float*, std::size_t, const cf*, cf*, std::size_t, std::size_t);
void correlate_lags(const cf*, const cf*, std::size_t, cf*, std::size_t);
void despread_correlate16(const cf*, std::size_t, const float*, const float*, const float*, cf*);
void fft(cf*, std::size_t, const float* const*, bool);
void cmul_inplace(cf*, const cf*, std::size_t);
void scale_inplace(cf*, float, std::size_t);
void window_apply(const cf*, const float*, cf*, std::size_t);
void scale_pulse(float, float, const float*, cf*, std::size_t);
void gaussian_cf(Mt19937_64&, cf*, std::size_t);
void sincos_f32(const float*, cf*, std::size_t);
void log_f32(const float*, float*, std::size_t);
}  // namespace avx2

/// Whether the CPU runs the avx2:: bodies.
inline bool avx2_runs() noexcept { return __builtin_cpu_supports("avx2") != 0; }

#endif

#if defined(BHSS_SIMD_AVX512)

namespace avx512 {
void correlate_lags(const cf*, const cf*, std::size_t, cf*, std::size_t);
void gaussian_cf(Mt19937_64&, cf*, std::size_t);
}  // namespace avx512

/// Whether the CPU runs the avx512:: bodies: AVX-512F and DQ (the
/// unit's target), on a CPU that also runs the avx2:: bodies.
inline bool avx512_runs() noexcept {
  return avx2_runs() && __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
}

#endif

}  // namespace bhss::dsp::simd
