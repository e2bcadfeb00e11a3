#pragma once

/// @file simd.hpp
/// Explicitly vectorized DSP kernels with a scalar reference fallback.
///
/// Every kernel here is **bit-identical** to its scalar reference — not
/// "numerically close", the same IEEE-754 bits. That property is what
/// lets the vector layer slide under the receiver chain without touching
/// the golden decision traces, the shard-merge byte-identity contract
/// (`merge_point_results`), or the 1-ulp seed-equivalence pins: the
/// vectorization axis of each kernel is chosen so the per-output
/// accumulation order is exactly the scalar order.
///
///  * `fir_filter_block`      — vectorized across *outputs*; the tap
///    index k walks sequentially, so each output accumulates in the same
///    order as the streaming `FirFilter::process(cf)` path.
///  * `fir_decimate_real`     — matched-filter output at the sampling
///    instants only (the demodulator discards everything between them);
///    vectorized across outputs via gathers, k sequential per output.
///  * `correlate_lags`        — vectorized across *lags*; each lag's
///    accumulator lives in its own lane and k walks sequentially,
///    matching `sync::correlate_at` exactly.
///  * `despread_correlate16`  — vectorized across the 16 candidate
///    symbols over a structure-of-arrays chip table; the chip-pair index
///    m walks sequentially, so each symbol's correlation accumulates in
///    the scalar order.
///  * `fft_stages`            — every radix-2 stage of one transform in
///    one call. Each butterfly is elementwise and keeps its scalar
///    products, so any schedule that respects the stage-to-stage data
///    flow gives the scalar bits: AVX2 runs the half = 1 and half = 2
///    stages across blocks in one pass (`a - t` as `a + (t ^ sign)`, the
///    same IEEE addition of the negation) and the half >= 4 stages two
///    at a time, both levels in registers (radix-2^2).
///  * `cmul_inplace`, `scale_inplace`, `window_apply`, `scale_pulse` —
///    elementwise, trivially order-preserving.
///  * `gaussian_cf`           — the Gaussian noise stream: MT19937-64
///    twist and tempering four words at a time, then the polar method's
///    attempts eight at a time, with rejection compacted in order. Every
///    step is either exact integer work or one correctly rounded IEEE
///    operation, and the one transcendental, `logf`, stays the scalar
///    libm call in every build (no vector log, no fast-math), so the
///    vector stream is the scalar stream bit for bit.
///
/// No FMA is used anywhere (a fused multiply-add rounds once where the
/// scalar code rounds twice, which would break bit-identity between this
/// translation unit and the scalar ones). The complex multiply is the
/// naive four-multiply form — the same fast path GCC emits for finite
/// `std::complex<float>` products — so callers must keep NaN/Inf out
/// (the receiver already scrubs non-finite samples at its boundary and
/// every kernel input is guarded by BHSS_REQUIRE upstream).
///
/// Dispatch: the AVX2 translation unit is compiled only on x86-64 when
/// the compiler supports `-mavx2` and `BHSS_SIMD=ON`, and is entered only
/// when the CPU reports AVX2 at runtime. Every other build and host runs
/// the scalar reference, `simd::scalar::*` in scalar_kernels.hpp, which
/// the equivalence suite (`test_dsp_simd`) compares against everywhere.

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/contracts.hpp"
#include "dsp/types.hpp"

namespace bhss::dsp::simd {

/// Name of the instruction set the dispatched kernels actually use at
/// runtime: "avx2" or "scalar".
[[nodiscard]] const char* active_isa() noexcept;

// ------------------------------------------------------------- kernels
//
// All pointers must be valid over the documented ranges; in-place aliasing
// is only allowed where a parameter is documented as in/out.

/// Block FIR: out[i] = sum_{k=0}^{n_taps-1} taps[k] * x[i + n_taps-1 - k]
/// for i in [0, n_out). `x` must hold n_out + n_taps - 1 samples: the
/// n_taps-1 history samples first, then the fresh input. Accumulation is
/// k-ascending (newest sample first), matching FirFilter's streaming path.
BHSS_HOT void fir_filter_block(const cf* taps, std::size_t n_taps, const cf* x, cf* out,
                               std::size_t n_out);

/// Decimating real-tap FIR (matched-filter sampling instants only):
/// out[m] = sum_{k=0}^{n_taps-1} taps[k] * x[m*stride + n_taps-1 - k]
/// for m in [0, n_out), accumulated as re += t*xr / im += t*xi.
/// `x` must hold (n_out-1)*stride + n_taps samples.
BHSS_HOT void fir_decimate_real(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                                std::size_t n_out, std::size_t stride);

/// Sliding cross-correlation: out[l] = sum_k x[l + k] * conj(ref[k]) for
/// l in [0, n_lags). `x` must hold n_lags - 1 + n_ref samples.
BHSS_HOT void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out,
                             std::size_t n_lags);

/// 16-ary despreading correlations over a structure-of-arrays chip table:
/// out[s] = sum_{m=0}^{n_pairs-1} pairs[m] * cf{se[m] * cols[2m][s],
///                                              (-so[m]) * cols[2m+1][s]}
/// where cols[c][s] = chip c of symbol s, stored column-major as
/// cols[c * 16 + s] (see ChipTable::columns()). `out` holds 16 values.
BHSS_HOT void despread_correlate16(const cf* pairs, std::size_t n_pairs, const float* se,
                                   const float* so, const float* cols, cf* out);

/// All butterfly stages of an in-place radix-2 decimation-in-time
/// transform of `x`, which holds n (a power of two >= 2) samples already
/// in bit-reversed order. Stage half h = 1, 2, 4, ..., n/2 reads its
/// twiddles at tw[h - 1 + k], k in [0, h) (n - 1 values in all), and for
/// every block start s (a multiple of 2h) and k in [0, h) computes
///   w = inverse ? conj(tw[h - 1 + k]) : tw[h - 1 + k];
///   t = w * x[s+k+h];  x[s+k] = x[s+k] + t;  x[s+k+h] = x[s+k]_old - t.
/// No 1/n scaling: the inverse only conjugates the twiddles.
BHSS_HOT void fft_stages(cf* x, std::size_t n, const cf* tw, bool inverse);

/// Pointwise complex multiply in place: a[i] *= b[i].
BHSS_HOT void cmul_inplace(cf* a, const cf* b, std::size_t n);

/// Scale in place: x[i] *= s (componentwise real scale).
BHSS_HOT void scale_inplace(cf* x, float s, std::size_t n);

/// Windowing: out[i] = x[i] * w[i] (complex times real). `out` may alias `x`.
BHSS_HOT void window_apply(const cf* x, const float* w, cf* out, std::size_t n);

/// Pulse shaping: out[k] = cf{a * pulse[k], b * pulse[k]}.
BHSS_HOT void scale_pulse(float a, float b, const float* pulse, cf* out, std::size_t n);

/// MT19937-64 engine state, stepped exactly as std::mt19937_64 steps it
/// (the engine is fully specified by the C++ standard): the 312-word
/// array plus the index of the next word to temper, where 312 means
/// "twist first". Seeding matches std::mt19937_64(seed).
struct Mt19937_64 {
  static constexpr std::size_t kWords = 312;

  explicit Mt19937_64(std::uint64_t seed) noexcept;

  /// One tempered output, as std::mt19937_64::operator() returns it.
  std::uint64_t operator()() noexcept;

  std::array<std::uint64_t, kWords> words;
  std::size_t next;
};

/// Standard complex Gaussian samples, the stream libstdc++'s
/// `std::normal_distribution<float>{0, 1}` draws from `std::mt19937_64`,
/// two normals per sample. Each polar attempt takes two uniforms
///   c = min(float(u) * 2^-64, nextafter(1, 0))   (u one engine output,
///                                                 float(u) correctly rounded)
///   x = float(double(2c) - 1.0), then y likewise from the next output,
/// and is rejected while r2 = x*x + y*y is > 1 or == 0. An accepted
/// attempt gives, with m = sqrt(-2 * logf(r2) / r2),
///   out[i] = cf{y * m + 0, x * m + 0}
/// (`+ 0` is the distribution's `* stddev + mean` step: it turns -0 into
/// +0). The engine is advanced by exactly the outputs the sequential
/// algorithm consumes for n samples, so any split of a stream into calls
/// yields the same samples and leaves the engine in the same state.
BHSS_HOT void gaussian_cf(Mt19937_64& eng, cf* out, std::size_t n);

}  // namespace bhss::dsp::simd
