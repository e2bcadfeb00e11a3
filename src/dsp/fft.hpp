#pragma once

/// @file fft.hpp
/// Iterative radix-2 FFT. Used by the receiver's jammer spectral
/// estimator, by the excision-filter design (eq. (3) in the paper requires
/// an inverse DFT of the desired response) and by every overlap-save
/// convolver.
///
/// A transform is one dispatched `simd::fft` call: the bit-reversal
/// permutation and every butterfly stage (vectorised and bit-identical to
/// the scalar reversal and stage-by-stage loop). Its twiddles come from
/// process-wide tables, one per stage: stage half h's twiddles
/// exp(-j 2 pi k / 2h) are the same values at every transform size, so
/// one table serves every size. A table is built the first time a size
/// needs it (16 B per twiddle, 8 B per point of the size that adds it) and
/// is immutable from then on, so constructing an `Fft` takes one mutex
/// and allocates nothing once its stages exist. Every `ConvolverPlan`
/// holds an `Fft`, and the control logic makes one for each excision
/// design it does not find in its cache, up to one per hop.

#include "core/contracts.hpp"
#include "dsp/types.hpp"

namespace bhss::dsp {

/// Radix-2 decimation-in-time FFT for a fixed power-of-two size.
/// Forward transform is unnormalised; inverse divides by N so that
/// inverse(forward(x)) == x. Copying an Fft copies a pointer.
class Fft {
 public:
  /// Largest supported size, far above the 65536 points any caller uses:
  /// the tables every stage up to it needs take 16 MB.
  static constexpr std::size_t kMaxSize = std::size_t{1} << 20;

  /// @param n transform size; must pass valid_size().
  explicit Fft(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// In-place forward transform of `x` (x.size() must equal size()).
  BHSS_HOT void forward(cspan_mut x) const;

  /// In-place inverse transform of `x` (normalised by 1/N).
  BHSS_HOT void inverse(cspan_mut x) const;

  /// Out-of-place convenience: returns FFT of `x`.
  [[nodiscard]] cvec forward_copy(cspan x) const;

  /// True if `n` is a power of two in [2, kMaxSize].
  [[nodiscard]] static bool valid_size(std::size_t n) noexcept;

 private:
  std::size_t n_;
  /// The process-wide stage tables (simd::fft layout), stage s at [s].
  const float* const* twiddles_;
};

/// Rotate a PSD / spectrum from natural FFT order (DC first) to a
/// DC-centred order suitable for display and band-edge reasoning.
[[nodiscard]] fvec fft_shift(fspan x);

}  // namespace bhss::dsp
