#pragma once

/// @file tone_jammer.hpp
/// Continuous-wave jammer. The excision-filter literature the paper builds
/// on ([3]-[7]) was developed against exactly this interferer: a CW tone
/// concentrates the whole power budget into one spectral line
/// ("narrow-band jammers will exhibit peaks at the frequencies occupied by
/// the jammer", §4.2).

#include <cstdint>

#include "dsp/types.hpp"

namespace bhss::jammer {

/// CW jammer: one unit-power complex exponential.
class ToneJammer {
 public:
  /// @param freq  tone frequency in cycles/sample, in (-0.5, 0.5)
  /// @param seed  randomises the initial phase
  explicit ToneJammer(double freq, std::uint64_t seed = 1);

  /// Generate `n` samples with unit power; phase is continuous across
  /// calls.
  [[nodiscard]] dsp::cvec generate(std::size_t n);

 private:
  double freq_;
  double phase_;  ///< current phase [rad]
};

}  // namespace bhss::jammer
