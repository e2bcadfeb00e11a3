#pragma once

/// @file correlate.hpp
/// Sliding cross-correlation primitives used by frame synchronization.

#include "dsp/types.hpp"

namespace bhss::sync {

/// Result of a sliding correlation search.
struct CorrelationPeak {
  std::size_t offset = 0;       ///< lag with the largest normalised magnitude
  dsp::cf value{0.0F, 0.0F};    ///< complex correlation at the peak
  float normalized = 0.0F;      ///< |value| / (||ref|| * ||window||), in [0, 1]
  float mean_normalized = 0.0F; ///< mean normalised magnitude over all lags —
                                ///< the correlation noise floor. A genuine
                                ///< preamble stands far above it; the largest
                                ///< of K noise lags only reaches ~sqrt(2 ln K)
                                ///< times the underlying Rayleigh scale.
};

/// The two halves of a complex cross-correlation at one lag.
struct HalfCorrelations {
  dsp::cf first{0.0F, 0.0F};   ///< terms k < ref.size() / 2
  dsp::cf second{0.0F, 0.0F};  ///< terms k >= ref.size() / 2
};

/// The halves of the cross-correlation of `x` against `ref` at one lag,
/// with h = ref.size() / 2:
///   first  = sum_{k < h}             x[lag + k] * conj(ref[k]),
///   second = sum_{h <= k < ref.size()} x[lag + k] * conj(ref[k]),
/// each summed in k order. The two sums are walked together, so neither
/// waits on the other's adds. Requires lag + ref.size() <= x.size().
[[nodiscard]] HalfCorrelations correlate_halves(dsp::cspan x, dsp::cspan ref, std::size_t lag);

/// Search lags [0, max_lag] for the strongest normalised correlation of
/// `ref` inside `x`. `max_lag` is clamped so the reference always fits.
[[nodiscard]] CorrelationPeak correlate_search(dsp::cspan x, dsp::cspan ref,
                                               std::size_t max_lag);

}  // namespace bhss::sync
