#pragma once

/// @file utils.hpp
/// Small numeric helpers: dB conversions, power measurement, sinc, and
/// per-sample rotation.

#include <algorithm>
#include <array>

#include "dsp/simd/simd.hpp"
#include "dsp/types.hpp"

namespace bhss::dsp {

/// Convert a power ratio expressed in dB to linear scale.
[[nodiscard]] double db_to_linear(double db) noexcept;

/// Convert a linear power ratio to dB. Clamps at -300 dB for zero input.
[[nodiscard]] double linear_to_db(double linear) noexcept;

/// Normalised sinc: sin(pi x) / (pi x), with sinc(0) == 1.
[[nodiscard]] double sinc(double x) noexcept;

/// Mean power (mean of |x|^2) of a complex sample buffer; 0 for empty input.
[[nodiscard]] double mean_power(cspan x) noexcept;

/// Total energy (sum of |x|^2) of a complex sample buffer.
[[nodiscard]] double energy(cspan x) noexcept;

/// The gain scale_to_power(x, target_power) multiplies every sample by:
/// sqrt(target_power / mean_power(x)), or 1 for a silent buffer.
[[nodiscard]] float power_gain(cspan x, double target_power) noexcept;

/// Scale `x` in place so its mean power becomes `target_power`.
/// A silent (all-zero) buffer is left untouched.
void scale_to_power(cspan_mut x, double target_power) noexcept;

/// True iff every sample in `x` is finite on both rails. Used by the
/// contract guards at the receiver/channel boundaries: one NaN entering
/// the filter-selection path silently corrupts whole BER curves.
[[nodiscard]] bool all_finite(cspan x) noexcept;

/// True iff every value in `x` is finite.
[[nodiscard]] bool all_finite(fspan x) noexcept;

/// Rotate each sample by its own angle: x[i] *= cf{cos(a), sin(a)} with
/// a = angle(i), a float, and cos/sin as simd::sincos_f32 computes them
/// (glibc's bits on every host). The angles are filled a stack chunk at a
/// time, then one phasor kernel and one complex multiply run per chunk.
template <class AngleFn>
void rotate(cspan_mut x, AngleFn&& angle) {
  constexpr std::size_t kChunk = 256;
  std::array<float, kChunk> ang;
  std::array<cf, kChunk> rot;
  for (std::size_t pos = 0; pos < x.size(); pos += kChunk) {
    const std::size_t len = std::min(kChunk, x.size() - pos);
    for (std::size_t i = 0; i < len; ++i) ang[i] = angle(pos + i);
    simd::sincos_f32(ang.data(), rot.data(), len);
    simd::cmul_inplace(x.data() + pos, rot.data(), len);
  }
}

}  // namespace bhss::dsp
