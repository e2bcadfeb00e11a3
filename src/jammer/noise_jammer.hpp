#pragma once

/// @file noise_jammer.hpp
/// Band-limited Gaussian noise jammer — exactly how the paper's jammer is
/// built (§6.2: "a random Gaussian source from GnuRadio and applying a low
/// pass filter on the signal"). The attacker model (§2) allows arbitrary
/// waveforms under a power budget; AWGN of chosen bandwidth is the
/// jammer's best generic strategy.

#include <cstdint>
#include <memory>

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
  NoiseJammer(double bandwidth_frac, std::uint64_t seed);

  /// Overwrite `out` with unit-power jamming noise, normalised over its
  /// own samples. An empty `out` draws no noise.
  void fill(dsp::cspan_mut out);

  /// Generate `n` samples of unit-power jamming noise: what `fill` writes
  /// into a span of `n` samples.
  [[nodiscard]] dsp::cvec generate(std::size_t n);

  [[nodiscard]] double bandwidth_frac() const noexcept { return bandwidth_frac_; }

 private:
  double bandwidth_frac_;
  channel::AwgnSource noise_;
  std::shared_ptr<const dsp::ConvolverPlan> shaper_;  ///< null for full-band noise
};

}  // namespace bhss::jammer
