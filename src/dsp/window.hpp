#pragma once

/// @file window.hpp
/// Classic FIR/spectral analysis window functions.

#include "dsp/types.hpp"

namespace bhss::dsp {

/// The window shapes the chain uses: rectangular for the Bartlett and
/// periodogram PSD estimates, hann for Welch, blackman for every low-pass
/// design.
enum class Window {
  rectangular,
  hann,
  blackman,
};

/// Build a window of length `n`. Lengths 0 and 1 return trivial windows.
[[nodiscard]] fvec make_window(Window type, std::size_t n);

/// Sum of squared window coefficients (used for PSD normalisation).
[[nodiscard]] double window_power(fspan w) noexcept;

}  // namespace bhss::dsp
