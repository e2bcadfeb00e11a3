#pragma once

/// @file fft.hpp
/// Iterative radix-2 FFT with a precomputed plan. Used by the receiver's
/// jammer spectral estimator and by the excision-filter design (eq. (3)
/// in the paper requires an inverse DFT of the desired response).
///
/// A transform is the bit-reversal permutation, applied as a precomputed
/// list of swaps, then one dispatched `simd::fft_stages` call that runs
/// every butterfly stage (vectorised and bit-identical to the scalar
/// stage-by-stage loop). Plans (the swap list, 8 B per swap for about n/2
/// swaps, and one flat array of the n - 1 per-stage twiddles, 8 B each:
/// about 12 B per point) are immutable and shared through a process-wide
/// cache, so constructing an `Fft` for a size that has been used before
/// is a cheap shared-pointer copy. The receiver builds an `FftConvolver`
/// (and hence an `Fft`) per hop; without the cache that rebuilt the
/// tables at every hop of every packet.

#include <memory>

#include "core/contracts.hpp"
#include "dsp/types.hpp"

namespace bhss::dsp {

struct FftPlan;  // bit-reversal swaps + per-stage twiddles, defined in fft.cpp

/// Radix-2 decimation-in-time FFT plan for a fixed power-of-two size.
/// Forward transform is unnormalised; inverse divides by N so that
/// inverse(forward(x)) == x. Copying an Fft only copies a plan handle.
class Fft {
 public:
  /// @param n transform size; must be a power of two >= 2.
  explicit Fft(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// In-place forward transform of `x` (x.size() must equal size()).
  BHSS_HOT void forward(cspan_mut x) const;

  /// In-place inverse transform of `x` (normalised by 1/N).
  BHSS_HOT void inverse(cspan_mut x) const;

  /// Out-of-place convenience: returns FFT of `x`.
  [[nodiscard]] cvec forward_copy(cspan x) const;

  /// Zero-pad `x` into `out` (whose size must equal size()) and transform
  /// in place — `forward_copy` without the per-call allocation.
  BHSS_HOT void forward_into(cspan x, cspan_mut out) const;

  /// True if `n` is a power of two >= 2.
  [[nodiscard]] static bool valid_size(std::size_t n) noexcept;

 private:
  void transform(cspan_mut x, bool inverse) const;

  std::size_t n_;
  std::shared_ptr<const FftPlan> plan_;  ///< shared via the process-wide cache
};

/// Rotate a PSD / spectrum from natural FFT order (DC first) to a
/// DC-centred order suitable for display and band-edge reasoning.
[[nodiscard]] fvec fft_shift(fspan x);

}  // namespace bhss::dsp
