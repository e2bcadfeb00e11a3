#pragma once

/// @file psd.hpp
/// Power spectral density estimation. The BHSS receiver's control logic
/// estimates the jammer's spectral occupancy with these estimators before
/// choosing a suppression filter (paper §4.2 cites Bartlett [18] and
/// Welch [19]).

#include "dsp/types.hpp"
#include "dsp/window.hpp"

namespace bhss::dsp {

/// Welch PSD estimate.
/// Returns `fft_size` bins in natural FFT order, normalised so that the
/// SUM over all bins equals the mean signal power. Segments shorter than
/// `fft_size` at the tail are dropped; if the signal is shorter than one
/// segment it is zero-padded into a single segment.
/// @param x            input samples
/// @param fft_size     power of two, segment and transform length
/// @param overlap      fractional overlap between segments, in [0, 0.95]
/// @param window       per-segment window
[[nodiscard]] fvec welch_psd(cspan x, std::size_t fft_size, double overlap = 0.5,
                             Window window = Window::hann);

/// Bartlett's method: Welch with rectangular window and no overlap.
[[nodiscard]] fvec bartlett_psd(cspan x, std::size_t fft_size);

/// Single (rectangular-window, zero-overlap, one-segment) periodogram of
/// the first `fft_size` samples. The noisiest estimator; kept for the
/// estimator ablation study.
[[nodiscard]] fvec periodogram(cspan x, std::size_t fft_size);

/// Total power contained in the PSD (sum over bins).
[[nodiscard]] double psd_total_power(fspan psd) noexcept;

/// Estimate the occupied bandwidth, as a fraction of the sampling rate, of
/// a PSD in natural FFT order: the smallest symmetric band around DC that
/// contains `fraction` of the total power. Returns a value in (0, 1].
[[nodiscard]] double occupied_bandwidth(fspan psd, double fraction = 0.99);

}  // namespace bhss::dsp
