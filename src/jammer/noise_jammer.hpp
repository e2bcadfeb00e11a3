#pragma once

/// @file noise_jammer.hpp
/// Band-limited Gaussian noise jammer — exactly how the paper's jammer is
/// built (§6.2: "a random Gaussian source from GnuRadio and applying a low
/// pass filter on the signal"). The attacker model (§2) allows arbitrary
/// waveforms under a power budget; AWGN of chosen bandwidth is the
/// jammer's best generic strategy.

#include <cstdint>
#include <optional>

#include "channel/awgn.hpp"
#include "dsp/fir.hpp"
#include "dsp/types.hpp"

namespace bhss::jammer {

/// Fixed-bandwidth Gaussian noise jammer with unit output power.
class NoiseJammer {
 public:
  /// @param bandwidth_frac  occupied (two-sided) bandwidth as a fraction
  ///                        of the sampling rate, in (0, 1]. 1 = full-band
  ///                        white noise (no shaping filter).
  /// @param seed            noise generator seed
  /// @param num_taps        shaping filter length (odd); higher = steeper
  ///                        band edges. The default keeps the transition
  ///                        skirts narrow relative to even the narrowest
  ///                        paper bandwidth (0.156 MHz at 20 MS/s), as a
  ///                        jammer spending its power budget efficiently
  ///                        would.
  NoiseJammer(double bandwidth_frac, std::uint64_t seed, std::size_t num_taps = 2049);

  /// Generate `n` samples of unit-power jamming noise.
  [[nodiscard]] dsp::cvec generate(std::size_t n);

  [[nodiscard]] double bandwidth_frac() const noexcept { return bandwidth_frac_; }

 private:
  double bandwidth_frac_;
  channel::AwgnSource noise_;
  std::optional<dsp::FftConvolver> shaper_;  ///< absent for full-band noise
  dsp::cvec raw_;  ///< shaping input, reused: white noise with the filter lead-in
};

}  // namespace bhss::jammer
