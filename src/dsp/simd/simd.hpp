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
///  * `fir_decimate_real`     — matched-filter output at the sampling
///    instants only (the demodulator discards everything between them);
///    vectorized across outputs via gathers, k sequential per output.
///  * `correlate_lags`        — vectorized across *lags*; each lag's
///    accumulator lives in its own lane and k walks sequentially, in the
///    order of `scalar::correlate_lags`. AVX2 runs blocks of 32 lags,
///    then groups of eight; a last group of fewer than eight loads and
///    stores through lane masks, so no lane past n_lags reads `x`, which
///    still needs only its n_lags - 1 + n_ref samples. AVX-512 runs the
///    same 32-lag blocks as four groups of eight lags, and the lags left
///    over as one sweep of at most four groups, the last one masked.
///  * `despread_correlate16`  — vectorized across the 16 candidate
///    symbols over a structure-of-arrays chip table; the chip-pair index
///    m walks sequentially, so each symbol's correlation accumulates in
///    the scalar order.
///  * `fft`                   — one whole transform: the bit reversal
///    and every radix-2 stage. Each butterfly is elementwise and keeps its
///    scalar products, so any schedule that respects the stage-to-stage
///    data flow gives the bits of the reference (`scalar::bit_reverse`,
///    then `scalar::fft_stages`): AVX2 reads each sample's bit-reversed
///    partner group straight into the half = 1 and half = 2 stages (no
///    permutation pass), runs the stages of half < 2048 block by block
///    while a block sits in L1, and the rest two at a time over the whole
///    array (radix-2^2), `a - t` as `a + (t ^ sign)` only where one
///    vector holds both outputs (the same IEEE addition of the negation).
///  * `cmul_inplace`, `scale_inplace`, `window_apply`, `scale_pulse` —
///    elementwise, trivially order-preserving.
///  * `gaussian_cf`           — the Gaussian noise stream: MT19937-64
///    twist and tempering four words at a time, then the polar method's
///    attempts eight at a time, with rejection compacted in order (AVX-512:
///    eight words and sixteen attempts at a time). Every
///    step is either exact integer work or one correctly rounded IEEE
///    operation, and the one transcendental is `log_f32`, so the vector
///    stream is the scalar stream bit for bit.
///  * `sincos_f32`, `log_f32` — in-tree replicas of glibc 2.36's `sinf`,
///    `cosf` (its FMA build) and `logf`, four lanes per vector in double.
///    These are not approximations: the scalar reference equals glibc on
///    every finite input (ctest `LibmReplica.*`), so the per-sample
///    rotations and the noise no longer call libm, and their bits no
///    longer depend on which libm build a host picks. The single-value
///    `sincos` and `abs` (glibc's `cabsf`) are inline in libm.hpp.
///
/// No FMA is used anywhere (a fused multiply-add rounds once where the
/// scalar code rounds twice, which would break bit-identity between this
/// translation unit and the scalar ones); every target compiles with
/// -ffp-contract=off, so the compiler fuses no multiply and add either,
/// even where the target ISA has FMA (AVX-512F). The complex multiply is the
/// naive four-multiply form — the same fast path GCC emits for finite
/// `std::complex<float>` products — so callers must keep NaN/Inf out
/// (the receiver already scrubs non-finite samples at its boundary and
/// every kernel input is guarded by BHSS_REQUIRE upstream).
///
/// Dispatch: the AVX2 translation unit is compiled only on x86-64 when
/// the compiler supports `-mavx2` and `BHSS_SIMD=ON`, for the baseline ISA
/// with `#pragma GCC target("avx2")` around its `avx2::` bodies only, and
/// is entered only when the CPU reports AVX2 at runtime. The AVX-512 unit
/// holds `correlate_lags` and `gaussian_cf` only; it is built the same way
/// where the compiler also takes `-mavx512f -mavx512dq`, and entered where
/// the CPU reports AVX2, AVX-512F and AVX-512DQ. Every other build and
/// host runs the scalar reference, `simd::scalar::*` in
/// scalar_kernels.hpp, which the equivalence suite (`test_dsp_simd`)
/// compares against everywhere.

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/contracts.hpp"
#include "dsp/types.hpp"

namespace bhss::dsp::simd {

/// Name of the instruction set the dispatched kernels actually use at
/// runtime: "avx2" or "scalar".
[[nodiscard]] const char* active_isa() noexcept;

/// Name of the instruction set the dispatched `correlate_lags` and
/// `gaussian_cf`, the kernels with an AVX-512 body, use at runtime:
/// "avx512", else the same as active_isa().
[[nodiscard]] const char* wide_isa() noexcept;

// ------------------------------------------------------------- kernels
//
// All pointers must be valid over the documented ranges; in-place aliasing
// is only allowed where a parameter is documented as in/out.

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

/// In-place radix-2 decimation-in-time transform of `x`, n (a power of
/// two >= 2) samples in natural order, with no 1/n scaling: the
/// bit-reversal permutation, then every butterfly stage, as
/// `scalar::fft_stages` runs them:
///   stage half h = 1, 2, 4, ..., n/2 (h = 2^s), for every block start
///   b (a multiple of 2h) and k in [0, h):
///     w = (tw[s][2k], tw[s][2h + 2k]), conjugated if `inverse`;
///     t = w * x[b+k+h];  x[b+k] = x[b+k] + t;  x[b+k+h] = x[b+k]_old - t.
/// `tw[s]` is stage s's twiddle table, 4h floats: the real parts, each
/// written twice, then the imaginary parts, each written twice
/// (tw[s][2k + 1] = tw[s][2k], tw[s][2h + 2k + 1] = tw[s][2h + 2k]), the
/// layout in which a vector of four twiddles is two loads and its product
/// one shuffle. The output is in natural order.
BHSS_HOT void fft(cf* x, std::size_t n, const float* const* tw, bool inverse);

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

/// Unit phasors: out[i] = cf{cosf(x[i]), sinf(x[i])}, bit for bit as
/// glibc 2.36's sinf and cosf return them where glibc picks its FMA build
/// (any CPU with FMA), on every finite x; a non-finite x gives NaN. Both
/// come from one range reduction and two polynomials in double (see
/// libm.hpp), so `a * out[i]` is the old per-sample rotation
/// `a * cf{std::cos(x), std::sin(x)}` on that host, and on every host.
BHSS_HOT void sincos_f32(const float* x, cf* out, std::size_t n);

/// out[i] = logf(x[i]), bit for bit as glibc 2.36's logf on every
/// positive finite x; like it, -inf at +-0, +inf at +inf, NaN below 0.
BHSS_HOT void log_f32(const float* x, float* out, std::size_t n);

}  // namespace bhss::dsp::simd
