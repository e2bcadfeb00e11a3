#pragma once

/// @file modem.hpp
/// QPSK half-sine chip modulation with a configurable number of samples
/// per chip. This is where bandwidth hopping physically happens: the
/// transmitter keeps the sampling rate fixed (the paper uses Rs = 20 MS/s
/// for every bandwidth, §6.1) and stretches the pulse duration by an
/// integer factor, which shrinks the occupied bandwidth by the same
/// factor (eq. (1): g(t) -> g(alpha t)).
///
/// Chip mapping (paper §6.1: "a BHSS transmitter and receiver for the
/// QPSK modulation ... the chips are modulated with a half-sine pulse"):
/// consecutive chip pairs (a, b) form one QPSK symbol a + jb, shaped by a
/// half-sine pulse spanning the two chip periods. Pulses of consecutive
/// pairs do not overlap, so a hop segment is exactly
/// n_chips * samples_per_chip samples long and hops are cleanly
/// separable in time.

#include "dsp/types.hpp"

namespace bhss::phy {

/// The half-sine pulse of one samples-per-chip setting, and both uses of
/// it: shaping chips on the transmit side and matched filtering on the
/// receive side (the pulse is symmetric, so it is its own matched filter).
/// Bandwidth hopping is realised by modulating each hop with the modem of
/// its level.
class QpskModem {
 public:
  /// @param samples_per_chip  even and >= 2 (one half-sine pulse spans
  ///                          2 * sps samples = one chip pair).
  explicit QpskModem(std::size_t samples_per_chip);

  /// The modem of `samples_per_chip`, built on first use and shared by
  /// every caller in the process (it is immutable).
  [[nodiscard]] static const QpskModem& of(std::size_t samples_per_chip);

  /// Modulate an even number of antipodal chips into `out`, which holds
  /// exactly chips.size() * sps samples.
  void modulate(std::span<const float> chips, dsp::cspan_mut out) const;

  /// Complex matched-filter peaks, one per chip pair (n_chips / 2 values),
  /// from at least n_chips * sps samples starting at the first sample of
  /// the first pulse. The real part carries the even chip, the imaginary
  /// part the odd chip; a residual carrier phase rotates the whole value,
  /// which the despreader's complex correlation can measure and the
  /// receiver's decision-directed tracker exploits.
  [[nodiscard]] dsp::cvec demodulate_pairs(dsp::cspan samples, std::size_t n_chips) const;

 private:
  std::size_t sps_;
  dsp::fvec pulse_;  ///< unit-energy half-sine spanning 2*sps samples
};

}  // namespace bhss::phy
