#pragma once

/// @file utils.hpp
/// Small numeric helpers: dB conversions, power measurement, sinc.

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

}  // namespace bhss::dsp
