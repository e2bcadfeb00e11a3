#pragma once

/// @file fir.hpp
/// FIR filter design and application. This is the heart of the BHSS
/// receiver's pre-despreading interference suppression:
///  * windowed-sinc low-pass design (used against wide-band jammers,
///    eq. (4) of the paper),
///  * frequency-sampling "whitening" excision design (used against
///    narrow-band jammers, eq. (3) of the paper),
///  * overlap-save FFT convolution through `ConvolverPlan::filter`, the
///    one way a designed filter is applied (the suppression filters and
///    the noise jammer's shaper).

#include <functional>
#include <memory>

#include "core/contracts.hpp"
#include "dsp/fft.hpp"
#include "dsp/types.hpp"

namespace bhss::dsp {

/// Immutable, shareable frequency-domain convolution plan: a designed
/// filter's taps, their spectrum, and the FFT geometry derived from the
/// tap count. It is the one representation of a designed filter, and it
/// applies itself: `filter` is const and keeps its block scratch per
/// thread, so one plan serves every shard and jammer that holds it. A
/// cache hit in the per-hop filter-design cache re-uses the taps spectrum
/// instead of re-transforming the taps every packet.
struct ConvolverPlan {
  cvec taps;
  std::size_t fft_size;
  std::size_t block_size;
  Fft fft;
  cvec taps_spectrum;

  /// Writes x[first, first + dest.size()) into `dest`, a span of the FFT
  /// block (see `filter`).
  using Source = std::function<void(std::size_t first, cspan_mut dest)>;

  /// Build a plan for a tap set (non-empty, finite); the plan keeps it.
  [[nodiscard]] static std::shared_ptr<const ConvolverPlan> make(cvec taps);

  /// A window of the causal convolution y[n] = sum_k taps[k] * x[n-k] of
  /// an input x of `x_size` samples, taken as zero before its start and
  /// past its end: out[i] = y[skip + i] for every i < out.size(), which
  /// may run past the end of x. Overlap-save in O(N log N), essential for
  /// the high filter orders the paper uses (up to 3181 taps). Block starts
  /// stay at multiples of `block_size` from x[0] whatever `skip` is, so
  /// y[n] has the same bits in every call whose window covers it, and only
  /// the blocks that overlap the window are computed. Where x ends is part
  /// of the input: a block reads zeros past it, and through the FFT every
  /// output of a block depends on every sample in it, so a longer x
  /// changes the bits of y even before its old end.
  ///
  /// `source` writes x straight into the FFT block, and each sample of x
  /// is requested once, in order: the first block asks for its whole
  /// input, every later block only for the samples past the one before,
  /// since the filter keeps each block's last taps - 1 inputs for the
  /// next. No request reaches past x_size, and none is made for an empty
  /// `out`. With skip < block_size and x_size <= skip + out.size(), the
  /// requests cover all of x. `source` must not run a filter itself: the
  /// block and the kept inputs live in a thread-local scratch that grows
  /// once per thread to the largest fft_size + taps - 1 it has run; no
  /// other allocation.
  BHSS_HOT void filter(std::size_t x_size, const Source& source, std::size_t skip,
                       cspan_mut out) const;

  /// `filter` of the samples in `x`, copied into each block.
  BHSS_HOT void filter(cspan x, std::size_t skip, cspan_mut out) const;
};

/// Blackman-windowed-sinc linear-phase low-pass design.
/// @param num_taps   filter length (odd recommended for symmetric delay)
/// @param cutoff     normalised cutoff in cycles/sample, 0 < cutoff < 0.5
/// @returns real taps with unity DC gain.
[[nodiscard]] fvec design_lowpass(std::size_t num_taps, double cutoff);

/// The plan of design_lowpass(num_taps, cutoff) with its taps widened to
/// complex, built once per process: a mutex-guarded memo keyed on
/// (num_taps, the bits of cutoff), like the FFT plan cache, hands every
/// later call the same immutable plan. The low-pass bank of every
/// ControlLogic and the shaper of every NoiseJammer come from here, so
/// shards and jammers that ask for one design share one plan. The memo
/// keeps each distinct design for the life of the process (a 2049-tap
/// shaper's plan is about 144 KB: its 16384-point taps spectrum and the
/// taps themselves).
[[nodiscard]] std::shared_ptr<const ConvolverPlan> lowpass_plan(std::size_t num_taps,
                                                                double cutoff);

/// Kaiser estimate of the number of taps a low-pass needs for a given
/// transition width (normalised, cycles/sample) at the receiver's 70 dB
/// stop-band attenuation. Result is forced odd and clamped to [3, 1025].
[[nodiscard]] std::size_t lowpass_num_taps(double transition_width);

/// Frequency-sampling excision ("whitening") filter from eq. (3):
///   H(k) = 1 / sqrt(P(k)) * exp(-j pi (K-1) k / K)
/// where P is the estimated PSD in natural FFT order. The filter is
/// normalised so its median magnitude response is unity — attenuation is
/// then concentrated where the jammer sits and ~1 elsewhere. We use an
/// integer group delay of K/2 samples (eq. (3)'s (K-1)/2 is fractional
/// for even K); the magnitude response is unchanged and the receiver can
/// compensate the delay exactly.
/// Bins below 1e-6 * max(P) are clamped to avoid huge gains in empty bins.
/// @param psd            PSD estimate, natural FFT order; size must be a
///                       power of two (it sets the number of taps K).
/// @param passband_frac  two-sided width (fraction of the sampling rate)
///                       outside which the response is forced to zero.
///                       Default 1.0 whitens the whole band (the paper's
///                       chip-rate-sampled receiver); an oversampled
///                       receiver passes its signal bandwidth here so the
///                       whitening gain is normalised in-band and
///                       out-of-band noise is rejected as well.
/// @returns K complex taps with group delay K/2.
[[nodiscard]] cvec design_excision_whitening(fspan psd, double passband_frac = 1.0);

/// |H(f)|^2 of a tap set at `nfft` points, natural FFT order. For tests
/// and plotting.
[[nodiscard]] fvec power_response(cspan taps, std::size_t nfft);

/// Widen real taps into complex ones.
[[nodiscard]] cvec to_complex(fspan real_taps);

}  // namespace bhss::dsp
